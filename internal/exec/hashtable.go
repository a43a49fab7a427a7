package exec

import (
	"bytes"
	"math/bits"
	"sync"

	"musketeer/internal/relation"
)

// This file implements the hashed-key tables of the hot kernels: the
// aggregation table (AGG, and DISTINCT, INTERSECT and DIFFERENCE, which group
// by every column), the join table and the set operators' key sets. Rows are
// keyed by a 64-bit maphash of the value encoding of their key cells
// (relation.Row.AppendKey: text equality, with nothing rendered). One
// structure, keyIndex, maps a key to a dense index; the three tables are that
// index plus whatever they hang off the index numbers. Probing allocates
// nothing: the encoding is written into a per-worker scratch buffer and only
// copied on insert.

// keyIndex is an open-addressing hash index that numbers distinct keys
// 0, 1, 2… in insertion order. It holds no pointers besides its three
// slices: slots maps a hash to an entry number, entries keep each key's hash
// (compared before the bytes, and reused to rehash on growth) and where its
// bytes end in the one key buffer.
type keyIndex struct {
	slots   []int32 // entry number + 1; 0 marks an empty slot; len is a power of two
	entries []keyEntry
	keys    []byte
}

type keyEntry struct {
	hash uint64
	end  int // keys[previous entry's end : end] are this entry's bytes
}

// newKeyIndex sizes the slot array and the entry list for capacity keys, so
// a table whose size is known up front never rehashes.
func newKeyIndex(capacity int) keyIndex {
	var x keyIndex
	x.prepare(capacity)
	return x
}

// prepare empties x and sizes it for capacity keys inside the storage it
// already has, allocating only what is too small: the slot array takes its
// full size, cleared, and the entries and key bytes keep their capacity.
func (x *keyIndex) prepare(capacity int) {
	n := 16
	for n < 2*capacity {
		n *= 2
	}
	if cap(x.slots) < n {
		x.slots = make([]int32, n)
	} else {
		x.slots = x.slots[:n]
		clear(x.slots)
	}
	if cap(x.entries) < capacity {
		x.entries = make([]keyEntry, 0, capacity)
	}
	x.entries, x.keys = x.entries[:0], x.keys[:0]
}

// key returns entry i's key bytes.
func (x *keyIndex) key(i int) []byte {
	lo := 0
	if i > 0 {
		lo = x.entries[i-1].end
	}
	return x.keys[lo:x.entries[i].end]
}

// slot walks the probe sequence of hash and returns the slot holding key, or
// the empty slot where it belongs — the one collision loop of every table.
func (x *keyIndex) slot(hash uint64, key []byte) int {
	mask := len(x.slots) - 1
	for s := int(hash) & mask; ; s = (s + 1) & mask {
		e := int(x.slots[s]) - 1
		if e < 0 || x.entries[e].hash == hash && bytes.Equal(x.key(e), key) {
			return s
		}
	}
}

// find returns key's index, or -1. It only reads, so goroutines may share a
// completed index.
func (x *keyIndex) find(hash uint64, key []byte) int {
	return int(x.slots[x.slot(hash, key)]) - 1
}

// insert returns key's index, adding it (and copying its bytes) when absent.
func (x *keyIndex) insert(hash uint64, key []byte) (idx int, added bool) {
	s := x.slot(hash, key)
	if e := int(x.slots[s]) - 1; e >= 0 {
		return e, false
	}
	// Slots stay at most half full, which keeps linear-probe runs short.
	if 2*(len(x.entries)+1) > len(x.slots) {
		x.grow()
		s = x.slot(hash, key)
	}
	if need := len(x.keys) + len(key); need > cap(x.keys) {
		// Double (the runtime's 1.25x for large slices would re-copy a big
		// key buffer many times), starting at room for every entry the index
		// was sized for, judged by this first key.
		c := 2 * cap(x.keys)
		if c == 0 {
			c = cap(x.entries) * len(key)
		}
		if c < need {
			c = need
		}
		x.keys = append(make([]byte, 0, c), x.keys...)
	}
	x.keys = append(x.keys, key...)
	x.entries = append(x.entries, keyEntry{hash: hash, end: len(x.keys)})
	x.slots[s] = int32(len(x.entries))
	return len(x.entries) - 1, true
}

// reset empties the index for reuse: the slot array restarts at 16 slots
// inside the storage the index already has, and the entries and key bytes
// keep their capacity.
func (x *keyIndex) reset() {
	x.slots = x.slots[:16]
	clear(x.slots)
	x.entries, x.keys = x.entries[:0], x.keys[:0]
}

// grow doubles the slot array — within its capacity when a reset left room —
// and re-places every entry by its stored hash.
func (x *keyIndex) grow() {
	if n := 2 * len(x.slots); n <= cap(x.slots) {
		x.slots = x.slots[:n]
		clear(x.slots)
	} else {
		x.slots = make([]int32, n)
	}
	mask := len(x.slots) - 1
	for i, e := range x.entries {
		s := int(e.hash) & mask
		for x.slots[s] != 0 {
			s = (s + 1) & mask
		}
		x.slots[s] = int32(i + 1)
	}
}

// Join tables and set-operator key sets recycle by capacity class, as
// relation.Pool recycles slices: a table in class k has room for at least
// 1<<k rows, so one taken for n ≤ 1<<k rows fills without growing, and one
// built on a miss is sized for 1<<k. A table goes back once no probe can
// reach it: when the chain that built it finishes, or, for one a loop keeps
// for its later rounds (RunOptions.Joins), when a round replaces it or
// runWhile returns. A table whose holder has no such end — an
// engines.LoopShare's — is built exactly sized, outside the pools, and left
// to the garbage collector.

// sizeClass is the class of n rows: the k of the smallest 1<<k ≥ n.
func sizeClass(n int) int { return bits.Len(uint(max(n, 1) - 1)) }

// classPool recycles *T by capacity class.
type classPool[T any] [bits.UintSize]sync.Pool

func (p *classPool[T]) get(k int) *T {
	t, _ := p[k].Get().(*T)
	return t
}

func (p *classPool[T]) put(k int, t *T) { p[k].Put(t) }

// keySet is the key index of a set operator's right input: every distinct key
// of its rows over all their columns. INTERSECT and DIFFERENCE filter their
// left input against it (see aggSpec.filter); it keeps no row.
type keySet struct {
	ix    keyIndex
	h     relation.KeyHasher
	class int
}

var keySets classPool[keySet]

// buildKeySet indexes the key of every row src yields, a batch at a time, in
// a recycled key set sized for rows rows.
func buildKeySet(src relation.RowSource, rows int) (*keySet, error) {
	k := sizeClass(rows)
	s := keySets.get(k)
	if s == nil {
		s = &keySet{class: k}
	}
	s.ix.prepare(1 << k)
	cols := allCols(src.Schema().Arity())
	for {
		b, err := src.Next()
		if err != nil {
			s.release()
			return nil, err
		}
		if b.Empty() {
			return s, nil
		}
		for _, row := range b.Rows {
			s.ix.insert(s.h.HashKey(row, cols))
		}
	}
}

func (s *keySet) release() { keySets.put(s.class, s) }

// joinTable is the build side of the hash join in compressed-sparse-row
// form: key i's build rows are rows[start[i]:start[i+1]], in build order.
// It is read-only once built, so chunk pipelines probe it concurrently.
type joinTable struct {
	ix    keyIndex
	start []int32
	rows  []relation.Row
	ids   []int32 // the build's scratch: each build row's key number
	h     relation.KeyHasher
}

var joinTables classPool[joinTable]

// buildJoinTable indexes rows by their projection onto cols in two passes:
// number the keys and count their rows, then place every row in its key's
// run. The table is a recycled one when pooled says it will be released,
// else new and exactly sized.
func buildJoinTable(rows []relation.Row, cols []int, pooled bool) *joinTable {
	c := len(rows)
	var t *joinTable
	if pooled {
		k := sizeClass(c)
		c, t = 1<<k, joinTables.get(k)
	}
	if t == nil {
		t = &joinTable{start: make([]int32, c+1), rows: make([]relation.Row, c), ids: make([]int32, c)}
	}
	t.ix.prepare(c)
	t.rows, t.ids = t.rows[:len(rows)], t.ids[:len(rows)]
	for i, row := range rows {
		id, _ := t.ix.insert(t.h.HashKey(row, cols))
		t.ids[i] = int32(id)
	}
	t.start = t.start[:len(t.ix.entries)+1]
	clear(t.start)
	for _, id := range t.ids {
		t.start[id+1]++
	}
	for i := 1; i < len(t.start); i++ {
		t.start[i] += t.start[i-1]
	}
	// start[id] is the cursor of key id's run while placing; each ends one run
	// further on, so shifting the array down by one restores the run starts.
	for i, id := range t.ids {
		t.rows[t.start[id]] = rows[i]
		t.start[id]++
	}
	copy(t.start[1:], t.start)
	t.start[0] = 0
	return t
}

// release hands t back to joinTables, in the class its capacity fills, its
// row headers cleared so the pool keeps no build rows alive. No probe may
// touch t after.
func (t *joinTable) release() {
	clear(t.rows)
	if k := bits.Len(uint(cap(t.rows))) - 1; k >= 0 {
		joinTables.put(k, t)
	}
}

// probe returns the build rows matching row's projection onto cols, hashing
// through h so concurrent probers each use their own scratch buffer.
func (t *joinTable) probe(h *relation.KeyHasher, row relation.Row, cols []int) []relation.Row {
	i := t.ix.find(h.HashKey(row, cols))
	if i < 0 {
		return nil
	}
	return t.rows[t.start[i]:t.start[i+1]]
}

// aggTable accumulates per-group aggregation state: group i of the index is
// rows[i], so first-appearance order is index order. A group's row holds its
// GROUP BY values, then a cell per aggregate, where each MIN and MAX keeps its
// extreme so far and the rest wait for emitAggRows; counts[i] is its row
// count (COUNT's answer and AVG's divisor) and sums[i*len(sp.sumCol):] its
// running SUM and AVG sums, started at 0 and added to as floats. Rows are
// carved from value slabs that grow with the table, so a group costs no heap
// object of its own.
//
// A table's scratch — the key index, counts, sums, the key hasher's buffer
// and the row headers — is recycled through aggPool once its rows are emitted
// or merged away. The slabs never are: the rows cut from them become the
// output relation, whose headers emitAggRows copies out exactly sized.
//
// A distinct table is one with no aggregates, grouped by every column: a
// group's row is its first row, copied into the slab — or kept by reference
// when the rows upstream are stable (aggSpec.byRef), with no slab at all —
// and it keeps no count or sum.
type aggTable struct {
	ix     keyIndex
	rows   []relation.Row
	counts []int64
	sums   []float64
	sp     aggSpec
	h      relation.KeyHasher
	slab   []relation.Value
	groups int // groups the next slab is cut for
}

// aggPool holds released tables, their row headers, slab and spec cleared.
var aggPool sync.Pool

// newAggTable takes a released table from aggPool, or makes one, and starts
// it empty for sp.
func newAggTable(sp aggSpec) *aggTable {
	t, _ := aggPool.Get().(*aggTable)
	if t == nil {
		return &aggTable{ix: newKeyIndex(64), sp: sp, groups: 8}
	}
	t.ix.reset()
	t.rows, t.counts, t.sums = t.rows[:0], t.counts[:0], t.sums[:0]
	t.sp, t.groups = sp, 8
	return t
}

// release hands t's scratch back to aggPool. Its rows now belong to whoever
// took them: t clears its headers and keeps no reference to them, its slab or
// its spec.
func (t *aggTable) release() {
	clear(t.rows)
	t.rows, t.slab, t.sp = t.rows[:0], nil, aggSpec{}
	aggPool.Put(t)
}

// add folds one row into its group's state, creating the state on the
// group's first appearance. A set operator's row whose key its right input's
// set holds (INTERSECT) or lacks (DIFFERENCE) is dropped first.
func (t *aggTable) add(row relation.Row) {
	hash, key := t.h.HashKey(row, t.sp.gIdx)
	if f := t.sp.filter; f != nil && (f.ix.find(hash, key) >= 0) != t.sp.keepIn {
		return
	}
	g, added := t.ix.insert(hash, key)
	switch {
	case added && t.sp.byRef:
		t.rows = append(t.rows, row)
	case added:
		t.rows = append(t.rows, t.newRow(row))
	}
	if len(t.sp.aggs) == 0 {
		return // a distinct table keeps its groups' first rows alone
	}
	if added {
		t.counts = append(t.counts, 0)
		t.sums = append(t.sums, make([]float64, len(t.sp.sumCol))...)
	}
	t.counts[g]++
	sums := t.sums[g*len(t.sp.sumCol):]
	for k, j := range t.sp.sumCol {
		sums[k] += row[j].AsFloat()
	}
	vals := t.rows[g]
	for _, e := range t.sp.ext {
		e.keep(&vals[e.cell], row[e.col])
	}
}

// newRow carves a group's row from the current slab and initializes its
// GROUP BY values and extremes from the group's first row.
func (t *aggTable) newRow(row relation.Row) relation.Row {
	n := len(t.sp.gIdx) + len(t.sp.aggs)
	if len(t.slab) < n {
		t.slab = make([]relation.Value, t.groups*n)
		if t.groups < 1024 {
			t.groups *= 2
		}
	}
	vals := relation.Row(t.slab[:n:n])
	t.slab = t.slab[n:]
	for i, j := range t.sp.gIdx {
		vals[i] = row[j]
	}
	for _, e := range t.sp.ext {
		vals[e.cell] = row[e.col]
	}
	return vals
}

// absorb merges another table's groups into t — the combiner step —
// preserving t's first-appearance order and appending o's new groups in o's
// order, then releases o. COUNT, MIN, MAX and integer SUM merge exactly; a
// float SUM / AVG is associative only up to rounding, so its low bits follow
// where the ranges were cut — which chain.run decides from the row count
// alone, so they are the same on every host.
func (t *aggTable) absorb(o *aggTable) {
	ns := len(t.sp.sumCol)
	for i, part := range o.rows {
		partSums := o.sums[i*ns : (i+1)*ns]
		j, added := t.ix.insert(o.ix.entries[i].hash, o.ix.key(i))
		if added {
			t.rows = append(t.rows, part)
		}
		if len(t.sp.aggs) == 0 {
			continue // a distinct table counts nothing
		}
		if added {
			t.counts = append(t.counts, o.counts[i])
			t.sums = append(t.sums, partSums...)
			continue
		}
		t.counts[j] += o.counts[i]
		sums := t.sums[j*ns:]
		for k, s := range partSums {
			sums[k] += s
		}
		for _, e := range t.sp.ext {
			e.keep(&t.rows[j][e.cell], part[e.cell])
		}
	}
	o.release()
}
