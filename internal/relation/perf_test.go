package relation

import (
	"fmt"
	"testing"

	"musketeer/internal/allocgate"
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

// kernels are this package's gated benchmarks: each times the body its entry
// sets up, and TestKernelAllocationsHoldBaseline holds the same bodies'
// allocations to BENCH_kernels.json.
var kernels = allocgate.Table{
	"BenchmarkRowKey/string": rowKeys(false),
	"BenchmarkRowKey/hashed": rowKeys(true),
	"BenchmarkEncodeDecode/encode-serial": func(testing.TB) func(testing.TB) {
		r := codecRelation(20000)
		return func(testing.TB) { _ = r.EncodeBytes() }
	},
	"BenchmarkEncodeDecode/decode-serial": decode(func(r *Relation) []byte { return r.EncodeBytes() }),
	"BenchmarkEncodeDecode/encode-columnar": func(testing.TB) func(testing.TB) {
		r := codecRelation(20000)
		return func(testing.TB) { _ = r.EncodeColumnar(CodecOptions{}) }
	},
	"BenchmarkEncodeDecode/decode-columnar": decode(func(r *Relation) []byte { return r.EncodeColumnar(CodecOptions{}) }),
	"BenchmarkPhysicalBytes/unstamped":      physicalBytes(codecRelation, false),
	"BenchmarkPhysicalBytes/stamped":        physicalBytes(codecRelation, true),
	"BenchmarkPhysicalBytes/full-precision": physicalBytes(fullPrecisionRelation, false),
}

// raceBuild is set by race_test.go when the race detector is compiled in.
var raceBuild bool

func TestKernelAllocationsHoldBaseline(t *testing.T) {
	if raceBuild {
		t.Skip("allocation baseline; the race runtime allocates on its own")
	}
	kernels.Check(t, "../../BENCH_kernels.json")
}

// BenchmarkRowKey compares the legacy allocation-per-row string key against
// the hashed scratch-buffer key used by the group-by/join kernels.
func BenchmarkRowKey(b *testing.B) {
	b.Run("string", kernels.Bench)
	b.Run("hashed", kernels.Bench)
}

// rowKeys keys 1000 rows on (int, string).
func rowKeys(hashed bool) func(testing.TB) func(testing.TB) {
	return func(testing.TB) func(testing.TB) {
		rows := make([]Row, 1000)
		for i := range rows {
			rows[i] = Row{Int(int64(i % 64)), Float(float64(i) * 0.5), Str(fmt.Sprintf("s%d", i%32))}
		}
		cols := []int{0, 2}
		var h KeyHasher
		return func(testing.TB) {
			for _, r := range rows {
				if hashed {
					_, _ = h.HashKey(r, cols)
				} else {
					_ = r.Key(cols)
				}
			}
		}
	}
}

// BenchmarkEncodeDecode measures the TSV and columnar codecs on the same
// 20k-row relation.
func BenchmarkEncodeDecode(b *testing.B) {
	for _, name := range []string{"encode-serial", "decode-serial", "encode-columnar", "decode-columnar"} {
		b.Run(name, kernels.Bench)
	}
}

// decode decodes the 20k-row relation from the bytes encode gives.
func decode(encode func(*Relation) []byte) func(testing.TB) func(testing.TB) {
	return func(testing.TB) func(testing.TB) {
		enc := encode(codecRelation(20000))
		return func(tb testing.TB) {
			if _, err := DecodeBytes("t", enc); err != nil {
				tb.Fatal(err)
			}
		}
	}
}
