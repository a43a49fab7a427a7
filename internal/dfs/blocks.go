package dfs

import (
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
)

// Config shapes the block layer. The defaults mirror HDFS semantics at
// test-friendly sizes: files split into fixed-size blocks, each replicated
// across distinct datanodes and checksummed so corrupt replicas are
// detected on read and masked by surviving replicas.
type Config struct {
	// BlockSize is the split size in bytes (HDFS uses 64–128 MB; the
	// default here is small so multi-block behaviour shows up in tests).
	BlockSize int
	// Replication is the number of replicas per block.
	Replication int
	// Nodes is the number of simulated datanodes replicas spread over.
	Nodes int
}

// DefaultConfig is used by New.
func DefaultConfig() Config {
	return Config{BlockSize: 256 << 10, Replication: 3, Nodes: 8}
}

func (c Config) normalized() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultConfig().BlockSize
	}
	if c.Replication <= 0 {
		c.Replication = DefaultConfig().Replication
	}
	if c.Nodes <= 0 {
		c.Nodes = DefaultConfig().Nodes
	}
	if c.Replication > c.Nodes {
		c.Replication = c.Nodes
	}
	return c
}

// replica is one stored copy of a block on one datanode: the block's bytes
// as the pieces a writer wrote them in, and their checksum. The bytes are
// immutable once written: readers verify and decode them outside the
// filesystem lock, and the replicas of a block share one piece list and one
// checksum until CorruptReplica gives one of them a corrupted copy.
type replica struct {
	node int
	data [][]byte
	sum  uint32
}

// block is one file split with its replica set.
type block struct {
	replicas []replica
}

// checksum is the CRC-32 of the bytes pieces hold, end to end.
func checksum(pieces [][]byte) (sum uint32) {
	for _, p := range pieces {
		sum = crc32.Update(sum, crc32.IEEETable, p)
	}
	return sum
}

// split cuts the stream segs hold, end to end, into checksummed blocks of
// BlockSize bytes without copying it: a block's pieces alias the segments,
// which the caller hands over, and a segment a block boundary crosses is
// sliced in two. Every block's pieces and replicas are runs of one list each,
// cut for the whole file. Placement is round-robin over datanodes, offset per
// block so replicas of consecutive blocks land on different nodes (as HDFS's
// placement spreads load). An empty file is one empty block.
func (d *DFS) split(segs [][]byte) []block {
	cfg := d.st.cfg
	size := 0
	for _, seg := range segs {
		size += len(seg)
	}
	blocks := make([]block, max(1, (size+cfg.BlockSize-1)/cfg.BlockSize))
	pieces := make([][]byte, 0, len(segs)+len(blocks)-1) // a boundary inside a segment adds a piece
	reps := make([]replica, len(blocks)*cfg.Replication)
	seg, at := 0, 0 // the next byte to place is segs[seg][at]
	for bi := range blocks {
		first := len(pieces)
		for room := cfg.BlockSize; room > 0 && seg < len(segs); {
			k := min(room, len(segs[seg])-at)
			if k > 0 {
				pieces = append(pieces, segs[seg][at:at+k:at+k])
			}
			room, at = room-k, at+k
			if at == len(segs[seg]) {
				seg, at = seg+1, 0
			}
		}
		data := pieces[first:len(pieces):len(pieces)]
		sum := checksum(data)
		r := reps[bi*cfg.Replication : (bi+1)*cfg.Replication : (bi+1)*cfg.Replication]
		for i := range r {
			r[i] = replica{node: (bi + i) % cfg.Nodes, data: data, sum: sum}
		}
		blocks[bi] = block{replicas: r}
	}
	return blocks
}

// verify picks the first healthy replica of every block, skipping replicas
// on down nodes and replicas whose checksum no longer matches (silent
// corruption), and returns their pieces in stream order. An unrecoverable
// block is an error.
func verify(path string, blocks []block, down map[int]bool) ([][]byte, error) {
	n := 0
	for _, b := range blocks {
		n += len(b.replicas[0].data)
	}
	out := make([][]byte, 0, n)
blocks:
	for bi, b := range blocks {
		for _, rep := range b.replicas {
			// A corrupt replica is masked: the next one is tried.
			if !down[rep.node] && checksum(rep.data) == rep.sum {
				out = append(out, rep.data...)
				continue blocks
			}
		}
		return nil, fmt.Errorf("dfs: %s: block %d unrecoverable (all replicas down or corrupt)", path, bi)
	}
	return out, nil
}

// SetNodeDown marks a datanode failed (true) or recovered (false); reads
// route around failed nodes using surviving replicas.
func (d *DFS) SetNodeDown(node int, isDown bool) {
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	down := maps.Clone(d.st.down)
	down[node] = isDown
	d.st.down = down
}

// CorruptReplica flips the bytes of one replica of one block (failure
// injection for tests); the checksum then fails on read and the replica is
// masked. Stored bytes are never written in place: the file gets a new block
// list holding a corrupted copy; a reader past Open keeps what it verified.
func (d *DFS) CorruptReplica(path string, blockIdx, replicaIdx int) error {
	d.st.mu.Lock()
	defer d.st.mu.Unlock()
	key := d.resolve(path)
	f, ok := d.st.files[key]
	if !ok {
		return noSuchFile(key)
	}
	if blockIdx < 0 || blockIdx >= len(f.blocks) {
		return fmt.Errorf("dfs: %s: no block %d", path, blockIdx)
	}
	if replicaIdx < 0 || replicaIdx >= len(f.blocks[blockIdx].replicas) {
		return fmt.Errorf("dfs: %s: block %d has no replica %d", path, blockIdx, replicaIdx)
	}
	blocks := slices.Clone(f.blocks)
	reps := slices.Clone(blocks[blockIdx].replicas)
	data := make([][]byte, len(reps[replicaIdx].data))
	for i, p := range reps[replicaIdx].data {
		data[i] = slices.Clone(p)
		for j := range data[i] {
			data[i][j] ^= 0xff
		}
	}
	reps[replicaIdx].data = data
	blocks[blockIdx].replicas = reps
	f.blocks = blocks
	return nil
}

// BlockCount returns how many blocks a file occupies.
func (d *DFS) BlockCount(path string) (int, error) {
	d.st.mu.RLock()
	defer d.st.mu.RUnlock()
	key := d.resolve(path)
	f, ok := d.st.files[key]
	if !ok {
		return 0, noSuchFile(key)
	}
	return len(f.blocks), nil
}

// BlockLocations returns the datanodes holding each block's replicas.
func (d *DFS) BlockLocations(path string) ([][]int, error) {
	d.st.mu.RLock()
	defer d.st.mu.RUnlock()
	key := d.resolve(path)
	f, ok := d.st.files[key]
	if !ok {
		return nil, noSuchFile(key)
	}
	locs := make([][]int, len(f.blocks))
	for i, b := range f.blocks {
		for _, rep := range b.replicas {
			locs[i] = append(locs[i], rep.node)
		}
	}
	return locs, nil
}
