package relation

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
)

// TestReaderOverStaleVectorsMatchesFresh: a reader whose pooled store last
// held other cells — every int, float, width and string of every buffer set
// to something else, and stale column headers — decodes an (int, float,
// string) stream into cells equal to a decode over a new store, cached widths
// included: for a trusted stream, whose widths are stamped, and a foreign one,
// whose widths must read 0, in one batch and in several over the same store.
// GC is off and one P holds the pool, so the reader takes the store put there
// last; the race runtime drops pooled items at random, so the stale store is
// offered again until the reader takes it.
func TestReaderOverStaleVectorsMatchesFresh(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rows = 40
	rel := New("n", NewSchema("id:int", "f:float", "s:string"))
	for i := 0; i < rows; i++ {
		rel.Rows = append(rel.Rows, Row{Int(int64(i*37 - 500)), Float(float64(i) / 3), Str(fmt.Sprint("s", i%4))})
	}
	data := rel.EncodeColumnar(CodecOptions{})
	stale := func(n int) *vecStore {
		st := &vecStore{cols: make([]Vec, 3), bufs: make([]VecBuf, 3)}
		for i := range st.cols {
			st.cols[i] = Vec{Kind: KindString, Strs: []string{"a stale header"}, sum: 99}
		}
		for i := range st.bufs {
			b := &st.bufs[i]
			b.ints, b.floats, b.widths, b.strs = make([]int64, n), make([]float64, n), make([]uint8, n), make([]string, n)
			for k := 0; k < n; k++ {
				b.ints[k], b.floats[k], b.widths[k], b.strs[k] = -7, 2.5, 9, "a stale string"
			}
		}
		return st
	}
	for _, trusted := range []bool{true, false} {
		for _, batch := range []int{7, DefaultBatchRows} {
			label := fmt.Sprintf("trusted=%v batch=%d", trusted, batch)
			reader := func() *groupReader {
				e, err := open("n", chop(data, 64), rows, trusted)
				if err != nil {
					t.Fatal(err)
				}
				return e.Reader(0, rows, batch, false).(*groupReader)
			}
			runtime.GC() // two collections empty every sync.Pool
			runtime.GC()
			want := readAll(t, reader())
			for try := 0; ; try++ {
				st := stale(64)
				vecStores.Put(st)
				r := reader()
				b, err := r.Next()
				if err != nil {
					t.Fatal(err)
				}
				if r.set.s != st {
					if try < 100 {
						continue
					}
					t.Fatalf("%s: the reader never took the stale store", label)
				}
				sameRows(t, label, append(b.AppendRows(nil), readAll(t, r)...), want)
				break
			}
		}
	}
}

// TestReaderVectorsAreRecycled: a reader cuts its vectors to the power-of-two
// class of its demand, not of its batch size, and hands its store back once
// drained; rows copied out of a batch survive later batches.
func TestReaderVectorsAreRecycled(t *testing.T) {
	rel := mixedRelation(40)
	e, err := Open("m", chop(rel.EncodeColumnar(CodecOptions{}), 64), 40)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC() // two collections empty every sync.Pool: the store is new
	runtime.GC()
	r := e.Reader(0, 40, DefaultBatchRows, false).(*groupReader)
	if b, err := r.Next(); err != nil || b.N != 40 {
		t.Fatalf("first batch = %d rows, %v", b.N, err)
	}
	bufs := r.set.s.bufs
	if got := [5]int{cap(bufs[0].ints), cap(bufs[0].widths), cap(bufs[1].floats), cap(bufs[1].widths), cap(bufs[2].strs)}; got != [5]int{64, 64, 64, 64, 64} {
		t.Errorf("vectors of %v cells for a 40-row range, want 64 each", got)
	}
	held := func() bool { return r.set.s != nil }
	if b, err := r.Next(); err != nil || !b.Empty() || held() {
		t.Errorf("drained: batch of %d rows, %v, vectors still held: %v", b.N, err, held())
	}
	var kept []Row
	src := e.Reader(0, 40, 3, false)
	for {
		b, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b.Empty() {
			break
		}
		kept = b.AppendRows(kept)
	}
	sameText(t, "rows copied out of batches", kept, rel.Rows)
}

// TestKeyAtMatchesKey: a batch row's key from its vectors — typed, or cells
// of mixed kinds, one column or several, words or bytes — is the key of the
// row's cells: the same hash, tags, cells and bytes.
func TestKeyAtMatchesKey(t *testing.T) {
	f := func(p keyPair) bool {
		rel := &Relation{Schema: Schema{Cols: make([]Column, len(p.a))}, Rows: []Row{p.a, p.b}}
		for _, rows := range [][]Row{{p.a, p.b}, {p.a}, {p.b, p.b}} {
			rel.Rows = rows
			b, err := rel.Reader(0, len(rows), len(rows), false).Next()
			if err != nil {
				t.Fatal(err)
			}
			for _, cols := range [][]int{allCols(len(p.a)), {0}, {len(p.a) - 1, 0}} {
				for i, row := range rows {
					var hr, hb KeyHasher
					h1, t1, c1, k1 := hr.Key(row, cols)
					h2, t2, c2, k2 := hb.KeyAt(&b, cols, i)
					if h1 != h2 || t1 != t2 || fmt.Sprint(c1) != fmt.Sprint(c2) || string(k1) != string(k2) {
						t.Errorf("row %v cols %v: KeyAt (%x %x %v %q), Key (%x %x %v %q)", row, cols, h2, t2, c2, k2, h1, t1, c1, k1)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
