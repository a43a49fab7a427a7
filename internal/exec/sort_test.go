package exec

import (
	"math/rand"
	"testing"

	"musketeer/internal/relation"
)

// BenchmarkSortRows measures the sort kernel on 100k rows with heavy key
// duplication (16 distinct keys) plus a unique tag column.
func BenchmarkSortRows(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	rows := make([]relation.Row, 100000)
	for i := range rows {
		rows[i] = relation.Row{relation.Int(int64(r.Intn(16))), relation.Int(int64(i))}
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = sortRowsBy(rows, []int{0}, false)
		}
	})
}
