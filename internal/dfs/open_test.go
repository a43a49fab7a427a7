package dfs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"musketeer/internal/relation"
)

// numbered is a small (int, float, string) relation whose lines are a few
// bytes each, so tiny blocks cut most of them.
func numbered(rows int) *relation.Relation {
	r := relation.New("n", relation.NewSchema("id:int", "f:float", "s:string"))
	for i := 0; i < rows; i++ {
		s := fmt.Sprintf("s%d", i)
		if i%4 == 0 {
			s = ""
		}
		r.MustAppend(relation.Row{relation.Int(int64(i - 3)), relation.Float(float64(i) / 8), relation.Str(s)})
	}
	return r
}

// streamed reads path through Open and one reader per row range, cloning the
// rows out of each batch.
func streamed(t *testing.T, d *DFS, path string, batchRows int, cuts ...int) *relation.Relation {
	t.Helper()
	enc, st, err := d.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if enc.NumRows() != st.Rows {
		t.Fatalf("opened %d rows, Stat says %d", enc.NumRows(), st.Rows)
	}
	out := relation.New(path, enc.Schema)
	lo := 0
	for _, hi := range append(cuts, st.Rows) {
		src := enc.Reader(lo, hi, batchRows, false)
		for {
			b, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b.Empty() {
				break
			}
			rows := b.AppendRows(nil)
			if err := relation.CheckWidths(&relation.Relation{Name: path, Rows: rows}); err != nil {
				t.Fatal(err)
			}
			out.Rows = append(out.Rows, rows...)
		}
		lo = hi
	}
	return out
}

// TestOpenStreamsWhatReadRelationDecodes: over block sizes that cut lines in
// one and in several places, streaming a file through its readers yields the
// rows — in order, widths included — that reading it whole does, with a
// corrupt first replica and a down node masked along the way.
func TestOpenStreamsWhatReadRelationDecodes(t *testing.T) {
	for _, blockSize := range []int{1, 7, 64, DefaultConfig().BlockSize} {
		for _, rows := range []int{0, 1, 50} {
			d := NewWithConfig(Config{BlockSize: blockSize, Replication: 3, Nodes: 5})
			want := numbered(rows)
			if err := d.WriteRelation("n", want); err != nil {
				t.Fatal(err)
			}
			blocks, _ := d.BlockCount("n")
			if err := d.CorruptReplica("n", 0, 0); err != nil {
				t.Fatal(err)
			}
			d.SetNodeDown((blocks/2)%5, true) // first replica of the middle block, and of every fifth one
			whole, err := d.ReadRelation("n")
			if err != nil {
				t.Fatal(err)
			}
			if whole.Fingerprint() != want.Fingerprint() || len(whole.Rows) != rows {
				t.Fatalf("block %d rows %d: read back %d rows, changed", blockSize, rows, len(whole.Rows))
			}
			for _, batch := range []int{1, 3, relation.DefaultBatchRows} {
				got := streamed(t, d, "n", batch, rows/3, rows/2)
				if len(got.Rows) != len(whole.Rows) {
					t.Fatalf("block %d batch %d: streamed %d rows, want %d", blockSize, batch, len(got.Rows), len(whole.Rows))
				}
				for i, row := range whole.Rows {
					for j := range row {
						if got.Rows[i][j] != row[j] {
							t.Fatalf("block %d batch %d: row %d col %d = %#v, want %#v", blockSize, batch, i, j, got.Rows[i][j], row[j])
						}
					}
				}
			}
		}
	}
}

// TestOpenFailsOnUnrecoverableBlock: with every replica of a block bad the
// error names the file and the block, and no decoding is attempted.
func TestOpenFailsOnUnrecoverableBlock(t *testing.T) {
	d := NewWithConfig(Config{BlockSize: 64, Replication: 2, Nodes: 4})
	if err := d.Namespace("ns").WriteRelation("n", numbered(50)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if err := d.Namespace("ns").CorruptReplica("n", 3, r); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := d.Namespace("ns").Open("n")
	if err == nil || !strings.Contains(err.Error(), "ns/n: block 3 unrecoverable") {
		t.Fatalf("Open = %v, want the path and block", err)
	}
	if _, err := d.Namespace("ns").ReadRelation("n"); err == nil {
		t.Fatal("ReadRelation read through an unrecoverable block")
	}
}

// TestCorruptionDoesNotReachEarlierReaders: block bytes are immutable, so a
// reader that opened the file before a replica was corrupted (or a node
// failed) still decodes what it verified, and a copy made earlier is intact.
func TestCorruptionDoesNotReachEarlierReaders(t *testing.T) {
	d := NewWithConfig(Config{BlockSize: 32, Replication: 1, Nodes: 2})
	want := numbered(30)
	if err := d.WriteRelation("n", want); err != nil {
		t.Fatal(err)
	}
	if err := d.Copy("n", "copy"); err != nil {
		t.Fatal(err)
	}
	enc, _, err := d.Open("n")
	if err != nil {
		t.Fatal(err)
	}
	blocks, _ := d.BlockCount("n")
	for bi := 0; bi < blocks; bi++ {
		if err := d.CorruptReplica("n", bi, 0); err != nil {
			t.Fatal(err)
		}
	}
	d.SetNodeDown(0, true)
	d.SetNodeDown(1, true)
	got, err := enc.Materialize()
	if err != nil || got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("reader opened before the corruption: %v", err)
	}
	d.SetNodeDown(0, false)
	d.SetNodeDown(1, false)
	if _, err := d.ReadRelation("n"); err == nil {
		t.Error("every replica corrupt, yet the file read")
	}
	if cp, err := d.ReadRelation("copy"); err != nil || cp.Fingerprint() != want.Fingerprint() {
		t.Errorf("copy made before the corruption: %v", err)
	}
}

// TestReplicasShareBytesUntilCorrupted: a block's replicas are one immutable
// piece list, and corrupting one gives that replica alone a copy — its siblings,
// and a file copied earlier, keep the bytes they had.
func TestReplicasShareBytesUntilCorrupted(t *testing.T) {
	d := NewWithConfig(Config{BlockSize: 64, Replication: 3, Nodes: 5})
	want := numbered(50)
	if err := d.Namespace("ns").WriteRelation("n", want); err != nil {
		t.Fatal(err)
	}
	d.Copy("ns/n", "copy")
	first := func(path string) []replica {
		d.st.mu.RLock()
		defer d.st.mu.RUnlock()
		return d.st.files[path].blocks[0].replicas
	}
	before := first("ns/n")
	text := string(bytes.Join(before[0].data, nil))
	for _, rep := range before[1:] {
		if &rep.data[0] != &before[0].data[0] || rep.sum != before[0].sum {
			t.Fatal("replicas of a fresh block do not share one piece list and checksum")
		}
	}
	if err := d.CorruptReplica("ns/n", 0, 0); err != nil {
		t.Fatal(err)
	}
	after := first("ns/n")
	if string(bytes.Join(after[0].data, nil)) == text {
		t.Error("replica 0 was not corrupted")
	}
	for _, rep := range append(after[1:], first("copy")...) {
		if string(bytes.Join(rep.data, nil)) != text {
			t.Error("the corruption of replica 0 reached a sibling replica or the earlier copy")
		}
	}
	for _, path := range []string{"ns/n", "copy"} {
		if got, err := d.ReadRelation(path); err != nil || got.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s after corrupting one replica: %v", path, err)
		}
	}
	d.CorruptReplica("ns/n", 0, 1)
	d.CorruptReplica("ns/n", 0, 2)
	if _, _, err := d.Open("ns/n"); err == nil || !strings.Contains(err.Error(), "ns/n: block 0 unrecoverable") {
		t.Errorf("every replica corrupt: Open = %v, want the path and block", err)
	}
	if _, err := d.ReadRelation("copy"); err != nil {
		t.Errorf("copy after corrupting every replica of the original: %v", err)
	}
}

// TestConcurrentReadersAndFaults runs readers of two namespaces against
// replica corruption, node failures and writers committing — over the very
// file being read, and beside it; under -race it proves Open verifies, and
// Commit builds its blocks, outside the lock without racing the fault
// injectors or each other.
func TestConcurrentReadersAndFaults(t *testing.T) {
	d := NewWithConfig(Config{BlockSize: 128, Replication: 3, Nodes: 5})
	want := numbered(400)
	views := []*DFS{d.Namespace("a"), d.Namespace("b")}
	for _, v := range views {
		if err := v.WriteRelation("n", want); err != nil {
			t.Fatal(err)
		}
	}
	blocks, _ := views[0].BlockCount("n")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(v *DFS) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				// At most one replica of a block is corrupt and one node — which
				// holds at most one replica of it — down: every read succeeds.
				if got, err := v.ReadRelation("n"); err != nil || len(got.Rows) != 400 {
					t.Errorf("concurrent read: %v", err)
					return
				}
			}
		}(views[g%2])
	}
	for _, v := range views {
		wg.Add(1)
		go func(v *DFS) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				w := relation.NewColumnarWriter(want.Schema) // as WriteRelation stores it: the same blocks
				head, tail := w.Part(), w.Part()
				tail.Append(want.Rows[100:])
				head.Append(want.Rows[:100])
				if _, err := v.Commit([]string{"n", "out"}[i%2], w); err != nil {
					t.Error(err)
				}
			}
		}(v)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if err := views[i%2].CorruptReplica("n", i%blocks, 0); err != nil {
				t.Error(err)
			}
			d.SetNodeDown(4, i%2 == 0)
		}
	}()
	wg.Wait()
	d.SetNodeDown(4, false)
	for _, v := range views {
		if got, err := v.ReadRelation("out"); err != nil || got.Fingerprint() != want.Fingerprint() {
			t.Errorf("committed beside the readers: %v", err)
		}
	}
}

// TestBlankRowsSurviveTheDFS is the storage half of the silent-row-loss
// regression: a one-column string relation holding empty strings reads back
// with the rows Stat records.
func TestBlankRowsSurviveTheDFS(t *testing.T) {
	d := New()
	rel := relation.New("s", relation.NewSchema("s:string"))
	for _, s := range []string{"a", "", "b"} {
		rel.MustAppend(relation.Row{relation.Str(s)})
	}
	if err := d.WriteRelation("s", rel); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadRelation("s")
	st, _ := d.Stat("s")
	if err != nil || len(got.Rows) != 3 || st.Rows != 3 || got.Rows[1][0].S != "" || got.Rows[2][0].S != "b" {
		t.Fatalf("read back %d rows (Stat %d), %v", len(got.Rows), st.Rows, err)
	}
}
