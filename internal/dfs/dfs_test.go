package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"musketeer/internal/relation"
)

func sample(logical int64) *relation.Relation {
	r := relation.New("t", relation.NewSchema("id:int", "v:float"))
	r.MustAppend(relation.Row{relation.Int(1), relation.Float(0.5)})
	r.MustAppend(relation.Row{relation.Int(2), relation.Float(1.5)})
	r.LogicalBytes = logical
	return r
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := New()
	want := sample(0)
	if err := d.WriteRelation("in/t", want); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadRelation("in/t")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("round trip changed rows")
	}
	if !got.Schema.Equal(want.Schema) {
		t.Error("round trip changed schema")
	}
}

// TestWriteRelationRefusesTabsAndNewlines: TSV has no escape for a tab or a
// newline, so a string cell holding one would come back as extra columns or
// rows. WriteRelation refuses it, naming the relation, the row and the
// column. The stored format carries the same string exactly.
func TestWriteRelationRefusesTabsAndNewlines(t *testing.T) {
	d := New()
	for _, s := range []string{"a\tb", "a\nb"} {
		rel := relation.New("notes", relation.NewSchema("id:int", "text:string"))
		rel.MustAppend(relation.Row{relation.Int(1), relation.Str("plain")})
		rel.MustAppend(relation.Row{relation.Int(2), relation.Str(s)})
		err := d.WriteRelation("in/notes", rel)
		if err == nil {
			t.Fatalf("%q: stored a cell TSV cannot read back", s)
		}
		for _, want := range []string{`"notes"`, "row 1", `column "text"`} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%q: error %q does not name %s", s, err, want)
			}
		}
		if _, err := d.Stat("in/notes"); err == nil {
			t.Errorf("%q: a refused relation was stored", s)
		}

		w := relation.NewColumnarWriter(rel.Schema)
		w.Append(rel.Rows)
		if _, err := d.Commit("mid/notes", w); err != nil {
			t.Fatal(err)
		}
		back, err := d.ReadRelation("mid/notes")
		if err != nil {
			t.Fatal(err)
		}
		if back.NumRows() != 2 || back.Rows[1][1].S != s {
			t.Errorf("%q: columnar read back %v", s, back.Rows)
		}
	}
}

func TestReadMissing(t *testing.T) {
	d := New()
	if _, err := d.ReadRelation("nope"); err == nil {
		t.Error("read of missing file succeeded")
	}
	if _, err := d.Stat("nope"); err == nil {
		t.Error("stat of missing file succeeded")
	}
	if err := d.Delete("nope"); err == nil {
		t.Error("delete of missing file succeeded")
	}
}

// TestMissingFileIsNotExist: every "no such file" error matches
// fs.ErrNotExist and keeps its text; a file that exists but whose blocks are
// all on downed datanodes does not match.
func TestMissingFileIsNotExist(t *testing.T) {
	d := smallBlockFS()
	ns := d.Namespace("ns")
	_, readErr := ns.ReadRelation("nope")
	_, _, openErr := ns.Open("nope")
	_, statErr := ns.Stat("nope")
	_, countErr := ns.BlockCount("nope")
	_, locErr := ns.BlockLocations("nope")
	for _, err := range []error{readErr, openErr, statErr, countErr, locErr,
		ns.Delete("nope"), ns.Copy("nope", "x"), ns.CorruptReplica("nope", 0, 0)} {
		if !errors.Is(err, fs.ErrNotExist) || err.Error() != `dfs: no such file "ns/nope"` {
			t.Errorf("%v: want the text dfs: no such file \"ns/nope\", matching fs.ErrNotExist", err)
		}
	}
	if err := d.WriteRelation("x", bigRel(10)); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 5; n++ {
		d.SetNodeDown(n, true)
	}
	if _, err := d.ReadRelation("x"); err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Errorf("unreadable file: %v, want an error that is not fs.ErrNotExist", err)
	}
}

func TestEmptyPathRejected(t *testing.T) {
	d := New()
	if err := d.WriteRelation("", sample(0)); err == nil {
		t.Error("empty path accepted")
	}
}

func TestStatAndCounters(t *testing.T) {
	d := New()
	rel := sample(1000)
	if err := d.WriteRelation("x", rel); err != nil {
		t.Fatal(err)
	}
	st, err := d.Stat("x")
	if err != nil {
		t.Fatal(err)
	}
	if st.LogicalBytes != 1000 || st.Rows != 2 {
		t.Errorf("stat = %+v", st)
	}
	if st.EffectiveBytes() != 1000 {
		t.Errorf("effective = %d", st.EffectiveBytes())
	}
	if d.BytesWritten() != 1000 {
		t.Errorf("written = %d, want logical 1000", d.BytesWritten())
	}
	if _, err := d.ReadRelation("x"); err != nil {
		t.Fatal(err)
	}
	if d.BytesRead() != 1000 {
		t.Errorf("read = %d", d.BytesRead())
	}
	d.ResetCounters()
	if d.BytesRead() != 0 || d.BytesWritten() != 0 {
		t.Error("counters not reset")
	}
}

func TestStatEffectiveFallsBackToPhysical(t *testing.T) {
	d := New()
	if err := d.WriteRelation("x", sample(0)); err != nil {
		t.Fatal(err)
	}
	st, _ := d.Stat("x")
	if st.EffectiveBytes() != st.PhysicalBytes {
		t.Error("effective should equal physical when logical unset")
	}
}

func TestListSortedAndDelete(t *testing.T) {
	d := New()
	for _, p := range []string{"b", "a", "c"} {
		if err := d.WriteRelation(p, sample(0)); err != nil {
			t.Fatal(err)
		}
	}
	got := d.List()
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("List = %v", got)
	}
	if err := d.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if d.Exists("b") {
		t.Error("deleted file still exists")
	}
}

func TestOverwriteReplaces(t *testing.T) {
	d := New()
	d.WriteRelation("x", sample(0))
	r2 := relation.New("t", relation.NewSchema("id:int", "v:float"))
	r2.MustAppend(relation.Row{relation.Int(9), relation.Float(9)})
	if err := d.WriteRelation("x", r2); err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadRelation("x")
	if got.NumRows() != 1 || got.Rows[0][0].I != 9 {
		t.Error("overwrite did not replace contents")
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := New()
	d.WriteRelation("shared", sample(100))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := d.ReadRelation("shared"); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if d.BytesRead() != 16*50*100 {
		t.Errorf("read counter = %d", d.BytesRead())
	}
}

// TestReadBackSizesMatchAcrossCodecs: reading a file back caches each
// number's width from the stored stream (the DFS is the only writer, so the
// widths are its own) — exact widths, and a relation that sizes to its
// re-encoded TSV body. Column g holds Ints in a float column (what ARITH over
// an int column and an int literal produces): those come back as Floats whose
// rendering can differ from the Ints' text.
func TestReadBackSizesMatchAcrossCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := New()
	for trial := 0; trial < 30; trial++ {
		rel := relation.New("t", relation.NewSchema("i:int", "f:float", "g:float", "s:string"))
		for k := rng.Intn(80); k > 0; k-- {
			rel.MustAppend(relation.Row{
				relation.Int(rng.Int63n(1<<uint(rng.Intn(62)+1)) - 1000),
				relation.Float(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(24)-12))),
				relation.Int(rng.Int63n(1 << uint(rng.Intn(40)+1))),
				relation.Str(fmt.Sprintf("s%d", rng.Intn(1000))),
			})
		}
		w := relation.NewColumnarWriter(rel.Schema)
		w.Append(rel.Rows)
		if st, err := d.Commit("f", w); err != nil || st.Rows != len(rel.Rows) {
			t.Fatalf("trial %d: committed %d rows as %d, %v", trial, len(rel.Rows), st.Rows, err)
		}
		back, err := d.ReadRelation("f")
		if err != nil {
			t.Fatal(err)
		}
		if err := relation.CheckWidths(back); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Strip the two header lines: the rest is the canonical body.
		body := back.EncodeBytes()
		for i := 0; i < 2; i++ {
			_, body, _ = bytes.Cut(body, []byte{'\n'})
		}
		if size := back.PhysicalBytes(); size != int64(len(body)) || len(back.Rows) != len(rel.Rows) {
			t.Fatalf("trial %d: %d rows read back sized %d, their TSV body is %d bytes", trial, len(back.Rows), size, len(body))
		}
	}
}
