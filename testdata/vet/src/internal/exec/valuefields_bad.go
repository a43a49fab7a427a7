package exec

import "musketeer/internal/relation"

// bumpInPlace carries two seeded violations [value-fields]: it rewrites a
// cell's content through its fields — once by assignment through an index
// expression, once by increment through a pointer — instead of replacing the
// cell with a newly built Value, so a text width cached in the cell would no
// longer describe what the cell holds.
func bumpInPlace(row relation.Row) {
	row[0].I = 7
	cell := &row[1]
	cell.I++
}
