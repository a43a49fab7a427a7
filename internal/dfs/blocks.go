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

// replica is one stored copy of a block on one datanode. Its bytes are
// immutable once written: readers verify and decode them outside the
// filesystem lock, and the replicas of a block share one buffer and one
// checksum until CorruptReplica gives one of them a corrupted copy.
type replica struct {
	node int
	data []byte
	sum  uint32
}

// block is one file split with its replica set.
type block struct {
	replicas []replica
}

// split cuts data into checksummed blocks that alias it: the caller hands
// the buffer over. Placement is round-robin over datanodes, offset per block
// so replicas of consecutive blocks land on different nodes (as HDFS's
// placement spreads load). An empty file is one empty block.
func (d *DFS) split(data []byte) []block {
	cfg := d.st.cfg
	blocks := make([]block, 0, len(data)/cfg.BlockSize+1)
	for off := 0; off < len(data) || off == 0; off += cfg.BlockSize {
		end := min(off+cfg.BlockSize, len(data))
		chunk := data[off:end:end]
		sum := crc32.ChecksumIEEE(chunk)
		reps := make([]replica, cfg.Replication)
		for r := range reps {
			reps[r] = replica{node: (len(blocks) + r) % cfg.Nodes, data: chunk, sum: sum}
		}
		blocks = append(blocks, block{replicas: reps})
	}
	return blocks
}

// verify picks the first healthy replica of every block, skipping replicas
// on down nodes and replicas whose checksum no longer matches (silent
// corruption). An unrecoverable block is an error.
func verify(path string, blocks []block, down map[int]bool) ([][]byte, error) {
	out := make([][]byte, len(blocks))
blocks:
	for bi, b := range blocks {
		for _, rep := range b.replicas {
			// A corrupt replica is masked: the next one is tried.
			if !down[rep.node] && crc32.ChecksumIEEE(rep.data) == rep.sum {
				out[bi] = rep.data
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
	data := slices.Clone(reps[replicaIdx].data)
	for i := range data {
		data[i] ^= 0xff
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
