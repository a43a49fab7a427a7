package exec

import (
	"math/rand"
	"testing"

	"musketeer/internal/relation"
)

func BenchmarkSortRows(b *testing.B) { b.Run("serial", kernels.Bench) }

// sortRows sorts 100k rows with heavy key duplication (16 distinct keys) plus
// a unique tag column.
func sortRows(testing.TB) func(testing.TB) {
	r := rand.New(rand.NewSource(42))
	rows := make([]relation.Row, 100000)
	for i := range rows {
		rows[i] = relation.Row{relation.Int(int64(r.Intn(16))), relation.Int(int64(i))}
	}
	return func(testing.TB) { _ = sortRowsBy(rows, []int{0}, false) }
}
