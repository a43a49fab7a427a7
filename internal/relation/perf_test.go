package relation

import (
	"bytes"
	"fmt"
	"testing"
)

// codecRelation builds a relation with mixed types and adversarial values
// (empty strings, colons, negative floats) sized to exercise both codec
// paths.
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

var (
	forceSerial   = CodecOptions{ParallelThreshold: 1 << 30}
	forceParallel = CodecOptions{ParallelThreshold: 1}
)

// TestParallelCodecMatchesSerial forces the chunk-parallel Encode/DecodeBytes
// paths on small data and checks they are byte- and row-identical to the
// serial paths. Thresholds are per-call options, so this runs in parallel
// with every other codec test without racing on package state.
func TestParallelCodecMatchesSerial(t *testing.T) {
	t.Parallel()
	r := codecRelation(500)

	serial := r.EncodeBytesOpts(forceSerial)
	parallel := r.EncodeBytesOpts(forceParallel)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("parallel Encode produced different bytes than serial")
	}

	for name, enc := range map[string][]byte{"serial": serial, "parallel": parallel} {
		dec, err := DecodeBytes("t", enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec.Rows) != len(r.Rows) {
			t.Fatalf("%s: decoded %d rows, want %d", name, len(dec.Rows), len(r.Rows))
		}
		for i := range r.Rows {
			for j := range r.Rows[i] {
				if !dec.Rows[i][j].Equal(r.Rows[i][j]) {
					t.Fatalf("%s: row %d col %d: %v != %v", name, i, j, dec.Rows[i][j], r.Rows[i][j])
				}
			}
		}
		if dec.LogicalBytes != r.LogicalBytes {
			t.Errorf("%s: logical bytes %d != %d", name, dec.LogicalBytes, r.LogicalBytes)
		}
	}
}

// TestCodecOptionsDefaultThreshold pins that a zero CodecOptions falls back
// to the package default.
func TestCodecOptionsDefaultThreshold(t *testing.T) {
	t.Parallel()
	if got := (CodecOptions{}).threshold(); got != CodecParallelThreshold {
		t.Fatalf("zero options threshold = %d, want %d", got, CodecParallelThreshold)
	}
	if got := (CodecOptions{ParallelThreshold: 3}).threshold(); got != 3 {
		t.Fatalf("explicit threshold = %d, want 3", got)
	}
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

// BenchmarkEncodeDecode measures the TSV codecs serially and chunk-parallel
// on the same 20k-row relation, plus the columnar codec for comparison.
func BenchmarkEncodeDecode(b *testing.B) {
	r := codecRelation(20000)
	enc := r.EncodeBytes()
	col := r.EncodeColumnar(CodecOptions{})
	run := func(name string, opts CodecOptions, fn func(b *testing.B, opts CodecOptions)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			fn(b, opts)
		})
	}
	run("encode-serial", forceSerial, func(b *testing.B, opts CodecOptions) {
		for i := 0; i < b.N; i++ {
			_ = r.EncodeBytesOpts(opts)
		}
	})
	run("encode-parallel", forceParallel, func(b *testing.B, opts CodecOptions) {
		for i := 0; i < b.N; i++ {
			_ = r.EncodeBytesOpts(opts)
		}
	})
	run("decode-serial", forceSerial, func(b *testing.B, opts CodecOptions) {
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBytes("t", enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("decode-parallel", forceParallel, func(b *testing.B, opts CodecOptions) {
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBytes("t", enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("encode-columnar", forceSerial, func(b *testing.B, opts CodecOptions) {
		for i := 0; i < b.N; i++ {
			_ = r.EncodeColumnar(opts)
		}
	})
	run("decode-columnar", forceSerial, func(b *testing.B, opts CodecOptions) {
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBytes("t", col); err != nil {
				b.Fatal(err)
			}
		}
	})
}
