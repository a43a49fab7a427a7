package exec

import "musketeer/internal/relation"

// tally has a field named I too; the rule matches the receiver's type, not
// the field's name.
type tally struct{ I int64 }

// Clean: replacing the whole cell with a newly built Value (a composite
// literal is construction, not an in-place write), reading Value fields, and
// assigning a same-named field of an unrelated struct.
func replaceCell(row relation.Row, t *tally) {
	row[0] = relation.Value{I: row[0].I + 1}
	t.I = row[0].I
	t.I++
}
