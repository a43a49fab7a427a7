package exec

import (
	"sort"

	"musketeer/internal/relation"
)

// sortRowsBy returns a new slice of rows stably ordered by the key columns.
// The input is not mutated (other operators may share the row slice).
func sortRowsBy(rows []relation.Row, keyIdx []int, desc bool) []relation.Row {
	out := make([]relation.Row, len(rows))
	copy(out, rows)
	sort.SliceStable(out, func(i, j int) bool {
		for _, k := range keyIdx {
			c := out[i][k].Compare(out[j][k])
			if c == 0 {
				continue
			}
			if desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return out
}
