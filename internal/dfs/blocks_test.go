package dfs

import (
	"bytes"
	"hash/crc32"
	"testing"

	"musketeer/internal/relation"
)

func bigRel(rows int) *relation.Relation {
	r := relation.New("big", relation.NewSchema("id:int", "payload:string"))
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Row{
			relation.Int(int64(i)),
			relation.Str("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
		})
	}
	return r
}

func smallBlockFS() *DFS {
	return NewWithConfig(Config{BlockSize: 1 << 10, Replication: 3, Nodes: 5})
}

func TestMultiBlockRoundTrip(t *testing.T) {
	d := smallBlockFS()
	want := bigRel(500)
	if err := d.WriteRelation("big", want); err != nil {
		t.Fatal(err)
	}
	n, err := d.BlockCount("big")
	if err != nil {
		t.Fatal(err)
	}
	if n < 5 {
		t.Fatalf("blocks = %d, want multi-block layout", n)
	}
	got, err := d.ReadRelation("big")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("multi-block round trip changed rows")
	}
}

func TestBlockPlacementSpreadsReplicas(t *testing.T) {
	d := smallBlockFS()
	if err := d.WriteRelation("big", bigRel(500)); err != nil {
		t.Fatal(err)
	}
	locs, err := d.BlockLocations("big")
	if err != nil {
		t.Fatal(err)
	}
	for bi, nodes := range locs {
		if len(nodes) != 3 {
			t.Fatalf("block %d has %d replicas", bi, len(nodes))
		}
		seen := map[int]bool{}
		for _, n := range nodes {
			if seen[n] {
				t.Errorf("block %d has two replicas on node %d", bi, n)
			}
			seen[n] = true
		}
	}
}

func TestCorruptReplicaMasked(t *testing.T) {
	d := smallBlockFS()
	want := bigRel(500)
	if err := d.WriteRelation("big", want); err != nil {
		t.Fatal(err)
	}
	// Corrupt the primary replica of every block: checksums must catch it
	// and reads fall back to the healthy replicas.
	n, _ := d.BlockCount("big")
	for bi := 0; bi < n; bi++ {
		if err := d.CorruptReplica("big", bi, 0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.ReadRelation("big")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("corruption leaked into the read path")
	}
}

func TestAllReplicasCorruptFails(t *testing.T) {
	d := smallBlockFS()
	if err := d.WriteRelation("big", bigRel(100)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if err := d.CorruptReplica("big", 0, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.ReadRelation("big"); err == nil {
		t.Error("read of fully corrupted block succeeded")
	}
}

func TestNodeFailureToleratedUpToReplication(t *testing.T) {
	d := smallBlockFS()
	want := bigRel(500)
	if err := d.WriteRelation("big", want); err != nil {
		t.Fatal(err)
	}
	// Two node failures: every block still has ≥1 replica (3 replicas over
	// 5 nodes).
	d.SetNodeDown(0, true)
	d.SetNodeDown(1, true)
	got, err := d.ReadRelation("big")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("node failure changed data")
	}
	// A third failure can make some block lose all replicas.
	d.SetNodeDown(2, true)
	if _, err := d.ReadRelation("big"); err == nil {
		t.Log("all blocks survived 3/5 nodes down (placement-dependent)")
	}
	// Recovery restores readability.
	d.SetNodeDown(0, false)
	d.SetNodeDown(1, false)
	d.SetNodeDown(2, false)
	if _, err := d.ReadRelation("big"); err != nil {
		t.Errorf("recovered cluster cannot read: %v", err)
	}
}

func TestCorruptReplicaErrors(t *testing.T) {
	d := smallBlockFS()
	if err := d.CorruptReplica("nope", 0, 0); err == nil {
		t.Error("missing file accepted")
	}
	d.WriteRelation("x", bigRel(10))
	if err := d.CorruptReplica("x", 99, 0); err == nil {
		t.Error("missing block accepted")
	}
	if err := d.CorruptReplica("x", 0, 99); err == nil {
		t.Error("missing replica accepted")
	}
	if _, err := d.BlockCount("nope"); err == nil {
		t.Error("BlockCount on missing file succeeded")
	}
	if _, err := d.BlockLocations("nope"); err == nil {
		t.Error("BlockLocations on missing file succeeded")
	}
}

func TestEmptyRelationStillStored(t *testing.T) {
	d := smallBlockFS()
	empty := relation.New("e", relation.NewSchema("a:int"))
	if err := d.WriteRelation("e", empty); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadRelation("e")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 {
		t.Errorf("rows = %d", got.NumRows())
	}
}

func TestReplicationClampedToNodes(t *testing.T) {
	d := NewWithConfig(Config{BlockSize: 512, Replication: 10, Nodes: 4})
	if err := d.WriteRelation("x", bigRel(50)); err != nil {
		t.Fatal(err)
	}
	locs, err := d.BlockLocations("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs[0]) != 4 {
		t.Errorf("replicas = %d, want clamped to 4 nodes", len(locs[0]))
	}
}

// TestCommitKeepsTheWritersSegments: a commit stores the writer's row-group
// segments themselves, cut at block boundaries and never copied — every
// replica's pieces are windows of them, in stream order — and checksums them
// as the blocks they make. Corrupting one replica changes that replica alone
// and not the writer's bytes, and the file reads back as the rows written.
func TestCommitKeepsTheWritersSegments(t *testing.T) {
	d := NewWithConfig(Config{BlockSize: 1000, Replication: 3, Nodes: 5})
	want := numbered(3000) // three row groups, each cut by several blocks
	w := relation.NewColumnarWriter(want.Schema)
	w.Append(want.Rows)
	stream, segs := w.Bytes(), w.Segments()
	if len(segs) != 4 {
		t.Fatalf("%d segments, want a header and three row groups", len(segs))
	}
	if _, err := d.Commit("n", w); err != nil {
		t.Fatal(err)
	}
	blocks := func() []block {
		d.st.mu.RLock()
		defer d.st.mu.RUnlock()
		return d.st.files["n"].blocks
	}
	stored := blocks()
	if len(stored) != (len(stream)+999)/1000 {
		t.Fatalf("%d blocks for a %d-byte stream", len(stored), len(stream))
	}
	off, k, at := 0, 1, 0 // the body's next byte is segs[k][at]; the header is the commit's own copy
	for bi, b := range stored {
		size := 0
		for _, rep := range b.replicas {
			if &rep.data[0] != &b.replicas[0].data[0] || rep.sum != b.replicas[0].sum {
				t.Fatalf("block %d: replicas do not share one piece list and checksum", bi)
			}
		}
		for _, p := range b.replicas[0].data {
			size += len(p)
			if off < len(segs[0]) {
				if !bytes.Equal(p, stream[off:off+len(p)]) {
					t.Fatalf("block %d: header piece differs from the stream", bi)
				}
				off += len(p)
				continue
			}
			if &p[0] != &segs[k][at] || at+len(p) > len(segs[k]) {
				t.Fatalf("block %d: a piece of %d bytes is not segment %d's bytes from %d", bi, len(p), k, at)
			}
			off, at = off+len(p), at+len(p)
			if at == len(segs[k]) {
				k, at = k+1, 0
			}
		}
		if size != min(1000, len(stream)-1000*bi) || b.replicas[0].sum != crc32.ChecksumIEEE(stream[1000*bi:1000*bi+size]) {
			t.Fatalf("block %d: %d bytes, checksum %x: not the stream's block", bi, size, b.replicas[0].sum)
		}
	}
	if off != len(stream) || k != len(segs) {
		t.Fatalf("the pieces cover %d of %d bytes, %d of %d segments", off, len(stream), k, len(segs))
	}

	if err := d.CorruptReplica("n", 2, 1); err != nil {
		t.Fatal(err)
	}
	for bi, b := range blocks() {
		for ri, rep := range b.replicas {
			corrupt := checksum(rep.data) != rep.sum
			if corrupt != (bi == 2 && ri == 1) {
				t.Errorf("block %d replica %d: corrupt = %v", bi, ri, corrupt)
			}
		}
	}
	if !bytes.Equal(bytes.Join(segs, nil), stream) {
		t.Error("corrupting a replica wrote into the writer's segments")
	}
	got, err := d.ReadRelation("n")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() || len(got.Rows) != len(want.Rows) {
		t.Errorf("reread %d rows (fingerprint %v), wrote %d (%v)", len(got.Rows), got.Fingerprint(), len(want.Rows), want.Fingerprint())
	}
}
