package relation

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestReaderOverStaleSlabMatchesFresh: a reader whose pooled slab and row
// headers last held another schema's cells — strings and floats, with every
// field of every cell set — decodes an (int, float) stream into cells equal to
// a fresh decode's, cached widths included: for a trusted stream, whose widths
// are stamped, and a foreign one, whose widths must read 0, in one batch and
// in several over the same slab. GC is off and one P holds the pools, so the
// reader takes the slab put there last; the race runtime drops pooled items at
// random, so the stale slab is offered again until the reader takes it.
func TestReaderOverStaleSlabMatchesFresh(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rows = 40
	rel := New("n", NewSchema("id:int", "f:float"))
	for i := 0; i < rows; i++ {
		rel.Rows = append(rel.Rows, Row{Int(int64(i*37 - 500)), Float(float64(i) / 3)})
	}
	data := rel.EncodeColumnar(CodecOptions{})
	stale := Value{Kind: KindString, w: 9, I: -7, F: 2.5, S: "a stale string"}
	for _, trusted := range []bool{true, false} {
		for _, batch := range []int{7, DefaultBatchRows} {
			label := fmt.Sprintf("trusted=%v batch=%d", trusted, batch)
			reader := func(fresh bool) *groupReader {
				e, err := open("n", chop(data, 64), rows, trusted)
				if err != nil {
					t.Fatal(err)
				}
				return e.Reader(0, rows, batch, fresh).(*groupReader)
			}
			want := readAll(t, reader(true))
			n := min(batch, rows)
			for try := 0; ; try++ {
				// Get, then Put: the stale buffers become this P's private
				// pooled items, which the reader's Gets return first.
				slab, hdr := valueSlabs.Get(2*n), rowHeaders.Get(n)
				for i := range *slab {
					(*slab)[i] = stale
				}
				for i := range *hdr {
					(*hdr)[i] = Row{stale, stale, stale}
				}
				valueSlabs.Put(slab)
				rowHeaders.Put(hdr)
				r := reader(false)
				b, err := r.Next()
				if err != nil {
					t.Fatal(err)
				}
				if r.ar.vals != slab || r.ar.rows != hdr {
					if try < 100 {
						continue
					}
					t.Fatalf("%s: the reader never took the stale slab and headers", label)
				}
				var got []Row
				for _, row := range b.Rows {
					got = append(got, row.Clone())
				}
				sameRows(t, label, append(got, readAll(t, r)...), want)
				break
			}
		}
	}
}
