package exec

import (
	"bytes"

	"musketeer/internal/relation"
)

// This file implements the hashed-key tables of the hot kernels (group-by,
// join, distinct, set ops). Rows are keyed by a 64-bit maphash of the value
// encoding of their key cells (relation.Row.AppendKey: text equality, with
// nothing rendered). One structure, keyIndex, maps a
// key to a dense index; the three tables are that index plus whatever they
// hang off the index numbers. Probing allocates nothing: the encoding is
// written into a per-worker scratch buffer and only copied on insert.

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
// a table whose size is known up front (join build, DISTINCT) never rehashes.
func newKeyIndex(capacity int) keyIndex {
	n := 16
	for n < 2*capacity {
		n *= 2
	}
	return keyIndex{slots: make([]int32, n), entries: make([]keyEntry, 0, capacity)}
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

// grow doubles the slot array and re-places every entry by its stored hash.
func (x *keyIndex) grow() {
	x.slots = make([]int32, 2*len(x.slots))
	mask := len(x.slots) - 1
	for i, e := range x.entries {
		s := int(e.hash) & mask
		for x.slots[s] != 0 {
			s = (s + 1) & mask
		}
		x.slots[s] = int32(i + 1)
	}
}

// keySet is a set of row keys, used by DISTINCT/INTERSECT/DIFFERENCE.
type keySet struct {
	ix keyIndex
	h  relation.KeyHasher
}

func newKeySet(capacity int) *keySet {
	return &keySet{ix: newKeyIndex(capacity)}
}

// add inserts the key of row's projection onto cols, reporting whether it
// was newly added.
func (s *keySet) add(row relation.Row, cols []int) bool {
	_, added := s.ix.insert(s.h.HashKey(row, cols))
	return added
}

// contains reports membership without inserting.
func (s *keySet) contains(row relation.Row, cols []int) bool {
	return s.ix.find(s.h.HashKey(row, cols)) >= 0
}

// joinTable is the build side of the hash join in compressed-sparse-row
// form: key i's build rows are rows[start[i]:start[i+1]], in build order.
// It is read-only once built, so chunk pipelines probe it concurrently.
type joinTable struct {
	ix    keyIndex
	start []int32
	rows  []relation.Row
}

// buildJoinTable indexes rows by their projection onto cols in two passes:
// number the keys and count their rows, then place every row in its key's
// run.
func buildJoinTable(rows []relation.Row, cols []int) *joinTable {
	t := &joinTable{ix: newKeyIndex(len(rows)), rows: make([]relation.Row, len(rows))}
	var h relation.KeyHasher
	ids := make([]int32, len(rows))
	for i, row := range rows {
		id, _ := t.ix.insert(h.HashKey(row, cols))
		ids[i] = int32(id)
	}
	t.start = make([]int32, len(t.ix.entries)+1)
	for _, id := range ids {
		t.start[id+1]++
	}
	for i := 1; i < len(t.start); i++ {
		t.start[i] += t.start[i-1]
	}
	// start[id] is the cursor of key id's run while placing; each ends one run
	// further on, so shifting the array down by one restores the run starts.
	for i, id := range ids {
		t.rows[t.start[id]] = rows[i]
		t.start[id]++
	}
	copy(t.start[1:], t.start)
	t.start[0] = 0
	return t
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

// aggState is one group's aggregation state apart from its float sums: its
// output row — GROUP BY values, then a cell per aggregate, where each MIN and
// MAX keeps its extreme so far and the rest wait for emitAggRows — and its row
// count (COUNT's answer and AVG's divisor).
type aggState struct {
	vals []relation.Value
	n    int64
}

// aggTable accumulates per-group aggregation state: group i of the index is
// states[i], so first-appearance order is index order, and its running SUM
// and AVG sums are sums[i*len(sp.sumCol):] — eight pointer-free bytes each,
// started at 0 and added to as floats. States' values are carved from value
// slabs that grow with the table, so a group costs no heap object of its own.
type aggTable struct {
	ix     keyIndex
	states []aggState
	sums   []float64
	sp     aggSpec
	h      relation.KeyHasher
	slab   []relation.Value
	groups int // groups the next slab is cut for
}

func newAggTable(sp aggSpec) *aggTable {
	return &aggTable{ix: newKeyIndex(64), sp: sp, groups: 8}
}

// add folds one row into its group's state, creating the state on the
// group's first appearance.
func (t *aggTable) add(row relation.Row) {
	g, added := t.ix.insert(t.h.HashKey(row, t.sp.gIdx))
	if added {
		t.states = append(t.states, t.newState(row))
		t.sums = append(t.sums, make([]float64, len(t.sp.sumCol))...)
	}
	st := &t.states[g]
	st.n++
	sums := t.sums[g*len(t.sp.sumCol):]
	for k, j := range t.sp.sumCol {
		sums[k] += row[j].AsFloat()
	}
	for _, e := range t.sp.ext {
		e.keep(&st.vals[e.cell], row[e.col])
	}
}

// newState carves a group's row from the current slab and initializes its
// GROUP BY values and extremes from the group's first row.
func (t *aggTable) newState(row relation.Row) aggState {
	n := len(t.sp.gIdx) + len(t.sp.aggs)
	if len(t.slab) < n {
		t.slab = make([]relation.Value, t.groups*n)
		if t.groups < 1024 {
			t.groups *= 2
		}
	}
	st := aggState{vals: t.slab[:n:n]}
	t.slab = t.slab[n:]
	for i, j := range t.sp.gIdx {
		st.vals[i] = row[j]
	}
	for _, e := range t.sp.ext {
		st.vals[e.cell] = row[e.col]
	}
	return st
}

// absorb merges another table's groups into t — the combiner step —
// preserving t's first-appearance order and appending o's new groups in o's
// order. COUNT, MIN, MAX and integer SUM merge exactly; a float SUM / AVG is
// associative only up to rounding, so its low bits follow where the ranges
// were cut — which chain.run decides from the row count alone, so they are
// the same on every host.
func (t *aggTable) absorb(o *aggTable) {
	ns := len(t.sp.sumCol)
	for i := range o.states {
		part, partSums := &o.states[i], o.sums[i*ns:(i+1)*ns]
		j, added := t.ix.insert(o.ix.entries[i].hash, o.ix.key(i))
		if added {
			t.states = append(t.states, *part)
			t.sums = append(t.sums, partSums...)
			continue
		}
		st := &t.states[j]
		st.n += part.n
		sums := t.sums[j*ns:]
		for k, s := range partSums {
			sums[k] += s
		}
		for _, e := range t.sp.ext {
			e.keep(&st.vals[e.cell], part.vals[e.cell])
		}
	}
}
