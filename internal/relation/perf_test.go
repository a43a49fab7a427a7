package relation

import (
	"fmt"
	"testing"
)

// codecRelation builds a relation with mixed types and adversarial values
// (empty strings, colons, negative floats) for the codec tests and
// benchmarks.
func codecRelation(rows int) *Relation {
	r := New("t", NewSchema("id:int", "w:float", "s:string"))
	for i := 0; i < rows; i++ {
		s := fmt.Sprintf("row:%d", i)
		if i%7 == 0 {
			s = ""
		}
		r.MustAppend(Row{
			Int(int64(i - rows/2)),
			Float(float64(i)*-0.25 + 0.5),
			Str(s),
		})
	}
	r.LogicalBytes = 1 << 20
	return r
}

// BenchmarkRowKey compares the legacy allocation-per-row string key against
// the hashed scratch-buffer key used by the group-by/join kernels.
func BenchmarkRowKey(b *testing.B) {
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{Int(int64(i % 64)), Float(float64(i) * 0.5), Str(fmt.Sprintf("s%d", i%32))}
	}
	cols := []int{0, 2}
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range rows {
				_ = r.Key(cols)
			}
		}
	})
	b.Run("hashed", func(b *testing.B) {
		b.ReportAllocs()
		var h KeyHasher
		for i := 0; i < b.N; i++ {
			for _, r := range rows {
				_, _ = h.HashKey(r, cols)
			}
		}
	})
}

// BenchmarkEncodeDecode measures the TSV and columnar codecs on the same
// 20k-row relation.
func BenchmarkEncodeDecode(b *testing.B) {
	r := codecRelation(20000)
	enc := r.EncodeBytes()
	col := r.EncodeColumnar(CodecOptions{})
	run := func(name string, fn func(b *testing.B)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
	}
	run("encode-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = r.EncodeBytes()
		}
	})
	run("decode-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBytes("t", enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("encode-columnar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = r.EncodeColumnar(CodecOptions{})
		}
	})
	run("decode-columnar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBytes("t", col); err != nil {
				b.Fatal(err)
			}
		}
	})
}
