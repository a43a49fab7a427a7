package exec

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// This file implements the hashed-key tables of the hot kernels: the
// aggregation table (AGG, and DISTINCT, INTERSECT and DIFFERENCE, which group
// by every column), the join table and the set operators' key sets. Every
// table keys a batch's rows from its vectors by relation.KeyHasher.KeyAt —
// the build side's as its source yields them: a key of numbers is a word per cell plus a
// word of tags, hashed by a seeded mixer; only a key with a string that is no
// number's text is bytes (relation.Row.AppendKey), hashed by maphash. A key
// travels as its four values (hash, tags, cells, bytes). Either way equality
// is text equality, with nothing rendered. One structure, keyIndex, maps a
// key to a dense index; the three tables are that index plus whatever they
// hang off the index numbers. Probing allocates nothing: the key is computed
// into a per-worker hasher's scratch and only copied on insert.

// keyIndex is an open-addressing hash index that numbers distinct keys
// 0, 1, 2… in insertion order. It holds no pointers besides its slices:
// slots maps a hash to an entry number, and each entry is one word — the low
// 32 bits of its key's hash above its tags or, for a byte key, byteKey and
// its length — compared before the key itself, and placing the entry again
// on growth without rehashing. A word key's cells are stored at a fixed
// stride, width words per key; a byte key's first word there is where its
// bytes start in keys, the buffer only byte keys fill.
type keyIndex struct {
	slots   []int32 // entry number + 1; 0 marks an empty slot; len is a power of two
	entries []uint64
	width   int      // cells per key; 1, a byte key's start, when keys are too wide for words
	cells   []uint64 // key i's are cells[i*width : (i+1)*width]
	keys    []byte
}

// byteKey marks a byte key's entry: word keys' tags lie below it.
const byteKey = 1 << relation.MaxWordCells

// prepare empties x and sizes it for capacity keys of the given number of
// cells inside the storage it already has, allocating only what is too
// small: the slot array takes its full size, cleared, and the entries, cells
// and key bytes keep their capacity. A table whose size is known up front
// never rehashes.
func (x *keyIndex) prepare(capacity, cells int) {
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
	x.width = cells
	if cells > relation.MaxWordCells {
		x.width = 1
	}
	if cap(x.entries) < capacity {
		x.entries = make([]uint64, 0, capacity)
	}
	if cap(x.cells) < capacity*x.width {
		x.cells = make([]uint64, 0, capacity*x.width)
	}
	x.entries, x.cells, x.keys = x.entries[:0], x.cells[:0], x.keys[:0]
}

// entry is the entry word of a key with this hash and tags or bytes.
func entry(hash, tags uint64, b []byte) uint64 {
	if b != nil {
		return hash<<32 | byteKey | uint64(len(b))
	}
	return hash<<32 | tags
}

// key returns entry i's key; its hash is the low 32 bits of the one it was
// inserted with, all a keyIndex places by.
func (x *keyIndex) key(i int) (hash, tags uint64, cells []uint64, b []byte) {
	e, cells := x.entries[i], x.cells[i*x.width:(i+1)*x.width]
	if e&byteKey != 0 {
		return e >> 32, 0, nil, x.keys[cells[0]:][:e&(byteKey-1)]
	}
	return e >> 32, e & (byteKey - 1), cells, nil
}

// slot walks the probe sequence of the key's hash and returns the slot
// holding the key, or the empty slot where it belongs — the one collision
// loop of every table. A word key's entry never equals a byte key's, and
// equal byte-key entries hold equal lengths.
func (x *keyIndex) slot(hash, tags uint64, cells []uint64, b []byte) int {
	mask, want, w := len(x.slots)-1, entry(hash, tags, b), x.width
	for s := int(hash) & mask; ; s = (s + 1) & mask {
		e := int(x.slots[s]) - 1
		if e < 0 {
			return s
		}
		if x.entries[e] != want {
			continue
		}
		held := x.cells[e*w : e*w+w]
		if b == nil && slices.Equal(held, cells) ||
			b != nil && bytes.Equal(x.keys[held[0]:][:len(b)], b) {
			return s
		}
	}
}

// find returns the key's index, or -1. It only reads, so goroutines may
// share a completed index. A byte key misses an index of word keys on
// entries alone, comparing no cells.
func (x *keyIndex) find(hash, tags uint64, cells []uint64, b []byte) int {
	return int(x.slots[x.slot(hash, tags, cells, b)]) - 1
}

// insert returns the key's index, adding it (and copying its cells or
// bytes) when absent.
func (x *keyIndex) insert(hash, tags uint64, cells []uint64, b []byte) (idx int, added bool) {
	s := x.slot(hash, tags, cells, b)
	if e := int(x.slots[s]) - 1; e >= 0 {
		return e, false
	}
	// Slots stay at most half full, which keeps linear-probe runs short.
	if 2*(len(x.entries)+1) > len(x.slots) {
		x.grow()
		s = x.slot(hash, tags, cells, b)
	}
	if b == nil {
		x.cells = append(x.cells, cells...)
	} else {
		if len(b) >= byteKey {
			panic("exec: a key of 2 GiB")
		}
		n := len(x.cells)
		x.cells = slices.Grow(x.cells, x.width)[:n+x.width]
		x.cells[n] = uint64(len(x.keys))
		if need := len(x.keys) + len(b); need > cap(x.keys) {
			// Double (the runtime's 1.25x for large slices would re-copy a
			// big key buffer many times), starting at room for every entry
			// the index was sized for, judged by this first key.
			x.keys = append(make([]byte, 0, max(2*cap(x.keys), cap(x.entries)*len(b), need)), x.keys...)
		}
		x.keys = append(x.keys, b...)
	}
	x.entries = append(x.entries, entry(hash, tags, b))
	x.slots[s] = int32(len(x.entries))
	return len(x.entries) - 1, true
}

// grow doubles the slot array and re-places every entry by the hash bits its
// entry word keeps.
func (x *keyIndex) grow() {
	if n := 2 * len(x.slots); n <= cap(x.slots) {
		x.slots = x.slots[:n]
		clear(x.slots)
	} else {
		x.slots = make([]int32, n)
	}
	mask := len(x.slots) - 1
	for i, e := range x.entries {
		s := int(e>>32) & mask
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
	cols := allCols(src.Schema().Arity())
	s.ix.prepare(1<<k, len(cols))
	for {
		b, err := src.Next()
		if err != nil {
			s.release()
			return nil, err
		}
		if b.Empty() {
			return s, nil
		}
		for i := 0; i < b.N; i++ {
			s.ix.insert(s.h.KeyAt(&b, cols, i))
		}
	}
}

func (s *keySet) release() { keySets.put(s.class, s) }

// joinTable is the build side of the hash join in compressed-sparse-row
// form: key i's build rows are numbered order[start[i]:start[i+1]], in build
// order, and cols holds the build's kept columns, a cell per build row, which
// the probe gathers. It is read-only once built, so chunk pipelines probe it
// concurrently. The index and the CSR are scratch a pooled table recycles;
// the columns are the build side's cells, copied exactly sized from its
// source by every build and dropped on release.
type joinTable struct {
	ix    keyIndex
	start []int32
	order []int32
	ids   []int32 // the build's scratch: each build row's key number
	cols  []relation.Vec
	h     relation.KeyHasher
}

var joinTables classPool[joinTable]

// buildJoinTable indexes the rows src yields — rows of them — by their
// projection onto key, a batch at a time, and copies their keep columns, in
// two passes: number the keys and count their rows, then place every row
// number in its key's run. The table is a recycled one when pooled says it
// will be released, else new and exactly sized.
func buildJoinTable(src relation.RowSource, rows int, key, keep []int, pooled bool) (*joinTable, error) {
	c := rows
	var t *joinTable
	if pooled {
		k := sizeClass(c)
		c, t = 1<<k, joinTables.get(k)
	}
	if t == nil {
		t = &joinTable{start: make([]int32, c+1), order: make([]int32, c), ids: make([]int32, c)}
	}
	t.ix.prepare(c, len(key))
	t.ids = t.ids[:0]
	if cap(t.cols) < len(keep) {
		t.cols = make([]relation.Vec, len(keep))
	}
	t.cols = t.cols[:len(keep)]
	for {
		b, err := src.Next()
		if err != nil {
			t.release()
			return nil, err
		}
		if b.Empty() {
			break
		}
		for k, j := range keep {
			t.cols[k].Fill(rows, len(t.ids), &b.Cols[j], b.N)
		}
		for i := 0; i < b.N; i++ {
			id, _ := t.ix.insert(t.h.KeyAt(&b, key, i))
			t.ids = append(t.ids, int32(id))
		}
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
	t.order = t.order[:len(t.ids)]
	for i, id := range t.ids {
		t.order[t.start[id]] = int32(i)
		t.start[id]++
	}
	copy(t.start[1:], t.start)
	t.start[0] = 0
	return t, nil
}

// release hands t back to joinTables, in the class its capacity fills, its
// columns dropped so the pool keeps no build cells alive. No probe may touch
// t after.
func (t *joinTable) release() {
	clear(t.cols)
	if k := bits.Len(uint(cap(t.order))) - 1; k >= 0 {
		joinTables.put(k, t)
	}
}

// probe returns the number of the key that row i of b has over cols, or -1
// when no build row has it, hashing through h so concurrent probers each use
// their own scratch.
func (t *joinTable) probe(h *relation.KeyHasher, b *relation.Batch, cols []int, i int) int {
	return t.ix.find(h.KeyAt(b, cols, i))
}

// matches returns the numbers of key k's build rows, in build order; none for
// k < 0.
func (t *joinTable) matches(k int) []int32 {
	if k < 0 {
		return nil
	}
	return t.order[t.start[k]:t.start[k+1]]
}

// aggTable accumulates per-group aggregation state: group i of the index is
// cell i of every column of cols, so first-appearance order is index order.
// The columns are the output's: the GROUP BY cells, then one per aggregate,
// where each MIN and MAX keeps its extreme so far and the rest are filled on
// emission (see aggColumns); counts[i] is group i's row count (COUNT's answer
// and AVG's divisor) and sums[i*len(sp.sums):] its running SUM and AVG sums,
// each a float64's bits or, for an int column, an int64 summed exactly: one
// that overflows flags its group in overflow, and the run fails (see err).
// Each column is a typed vector (relation.Vec.Extend), Vals only where its
// groups' cells differ in kind, cut from buffers the table keeps (set).
//
// A table is recycled whole through aggPool once its groups are emitted or
// merged away: key index, counts, sums, the key hasher's buffers and the
// column store. Emission copies the groups out — into a sink's row groups, or
// into rows cut exactly sized (emitAggRows).
//
// A distinct table is one with no aggregates, grouped by every column: a
// group's cells are its first row's — or, when the batches carry bound source
// rows (aggSpec.byRef), that row itself, kept in refs — and it keeps no count
// or sum.
type aggTable struct {
	ix       keyIndex
	set      relation.VecSet
	cols     []relation.Vec
	refs     []relation.Row
	counts   []int64
	sums     []uint64
	overflow int // 1 + the first group whose int sum overflowed; 0 for none
	sp       aggSpec
	h        relation.KeyHasher
	gids     []int32 // addBatch's: the group of each row it folds
	fresh    []int32 // addBatch's and absorb's: where each new group's cells are
	into     []int32 // absorb's: the group each of the other table's shared ones joins
}

// aggPool holds released tables, their columns, refs and spec cleared.
var aggPool sync.Pool

// newAggTable takes a released table from aggPool, or makes one, and starts
// it empty for sp.
func newAggTable(sp aggSpec) *aggTable {
	t, _ := aggPool.Get().(*aggTable)
	if t == nil {
		t = &aggTable{}
		t.ix.prepare(64, len(sp.gIdx))
	} else {
		t.ix.prepare(0, len(sp.gIdx))
	}
	t.cols = t.set.Cols(len(sp.gIdx) + len(sp.aggs))
	clear(t.cols)
	t.set.Bufs(len(t.cols))
	t.refs, t.counts, t.sums = t.refs[:0], t.counts[:0], t.sums[:0]
	t.overflow, t.sp = 0, sp
	return t
}

// release hands t back to aggPool. Its groups now belong to whoever took
// them: t clears its columns and refs and keeps no reference to them or to
// its spec.
func (t *aggTable) release() {
	t.set.Clear()
	clear(t.refs)
	t.cols, t.refs, t.sp = nil, t.refs[:0], aggSpec{}
	aggPool.Put(t)
}

// groups returns the number of groups t holds.
func (t *aggTable) groups() int { return len(t.ix.entries) }

// addBatch folds b's rows into their groups' state, creating a group's state
// on its first appearance: keys row by row, then the new groups' cells, the
// counts, the extremes and each SUM and AVG, column by column over the batch's
// vectors, by the groups gids numbered. A set operator's row whose key its
// right input's set holds (INTERSECT) or lacks (DIFFERENCE) is dropped first;
// a set operator aggregates nothing, so gids[i] is row i's group wherever
// aggregates are folded.
func (t *aggTable) addBatch(b *relation.Batch) {
	n := t.groups()
	gids, fresh := t.gids[:0], t.fresh[:0]
	for i := 0; i < b.N; i++ {
		hash, tags, cells, k := t.h.KeyAt(b, t.sp.gIdx, i)
		if f := t.sp.filter; f != nil && (f.ix.find(hash, tags, cells, k) >= 0) != t.sp.keepIn {
			continue
		}
		g, added := t.ix.insert(hash, tags, cells, k)
		gids = append(gids, int32(g))
		if !added {
			continue
		}
		if t.sp.byRef {
			t.refs = append(t.refs, b.Src[i])
		} else {
			fresh = append(fresh, int32(i))
		}
	}
	t.gids, t.fresh = gids, fresh
	t.extend(n, b.Cols, fresh, false)
	if len(t.sp.aggs) == 0 {
		return // a distinct table keeps its groups' first cells alone
	}
	bufs := t.set.Bufs(len(t.cols))
	for _, e := range t.sp.ext {
		t.cols[e.cell].Keep(&bufs[e.cell], &b.Cols[e.col], nil, gids, e.sign)
	}
	t.counts = slices.Grow(t.counts, len(fresh))[:n+len(fresh)]
	clear(t.counts[n:])
	for _, g := range gids {
		t.counts[g]++
	}
	ns, over := len(t.sp.sums), b.N // over: the first row whose int sum overflowed
	t.sums = slices.Grow(t.sums, ns*len(fresh))[:ns*(n+len(fresh))]
	clear(t.sums[ns*n:])
	for k, s := range t.sp.sums {
		v := &b.Cols[s.col]
		switch {
		case s.exact:
			for i, g := range gids {
				if addInt(&t.sums[int(g)*ns+k], uint64(v.AsInt(i))) {
					over = min(over, i)
				}
			}
		case v.Is(relation.KindFloat):
			for i, g := range gids {
				addFloat(&t.sums[int(g)*ns+k], v.Floats[i])
			}
		default:
			for i, g := range gids {
				addFloat(&t.sums[int(g)*ns+k], v.AsFloat(i))
			}
		}
	}
	if over < b.N && t.overflow == 0 {
		t.overflow = int(gids[over]) + 1
	}
}

// extend appends the cells at rows idx of src to t's n groups, every GROUP BY
// column's and every extreme's: src is a batch's columns, or with table
// another table's.
func (t *aggTable) extend(n int, src []relation.Vec, idx []int32, table bool) {
	if len(idx) == 0 {
		return
	}
	bufs := t.set.Bufs(len(t.cols))
	for k, j := range t.sp.gIdx {
		if table {
			j = k
		}
		t.cols[k] = t.cols[k].Extend(&bufs[k], n, &src[j], idx)
	}
	for _, e := range t.sp.ext {
		j := e.col
		if table {
			j = e.cell
		}
		t.cols[e.cell] = t.cols[e.cell].Extend(&bufs[e.cell], n, &src[j], idx)
	}
}

// addInt adds int64 v to the int sum *sum and reports whether it overflowed.
func addInt(sum *uint64, v uint64) bool {
	old := *sum
	*sum = old + v
	return int64((*sum^old)&(*sum^v)) < 0
}

// addFloat adds v to the float sum whose bits are *sum.
func addFloat(sum *uint64, v float64) {
	*sum = math.Float64bits(math.Float64frombits(*sum) + v)
}

// err reports an int sum that overflowed int64, naming op and the group.
func (t *aggTable) err(op *ir.Op) error {
	if t.overflow == 0 {
		return nil
	}
	group := make(relation.Row, len(t.sp.gIdx))
	for k := range group {
		group[k] = t.cols[k].Cell(t.overflow - 1)
	}
	return fmt.Errorf("exec: %s: integer sum overflows int64 in group %v", op, group)
}

// absorb merges another table's groups into t — the combiner step —
// preserving t's first-appearance order and appending o's new groups in o's
// order, then releases o. COUNT, MIN, MAX and int sums merge exactly; a
// float SUM / AVG is associative only up to rounding, so its low bits follow
// where the ranges were cut — which chain.run decides from the row count
// alone, so they are the same on every host.
func (t *aggTable) absorb(o *aggTable) {
	n, ns := t.groups(), len(t.sp.sums)
	fresh, from, into := t.fresh[:0], o.fresh[:0], t.into[:0]
	for i := range o.groups() {
		j, added := t.ix.insert(o.ix.key(i))
		if added {
			if t.sp.byRef {
				t.refs = append(t.refs, o.refs[i])
			} else {
				fresh = append(fresh, int32(i))
			}
		}
		if len(t.sp.aggs) == 0 {
			continue // a distinct table counts nothing
		}
		partSums := o.sums[i*ns : (i+1)*ns]
		if o.overflow == i+1 && t.overflow == 0 {
			t.overflow = j + 1
		}
		if added {
			t.counts = append(t.counts, o.counts[i])
			t.sums = append(t.sums, partSums...)
			continue
		}
		from, into = append(from, int32(i)), append(into, int32(j))
		t.counts[j] += o.counts[i]
		sums := t.sums[j*ns:]
		for k, s := range partSums {
			if t.sp.sums[k].exact {
				if addInt(&sums[k], s) && t.overflow == 0 {
					t.overflow = j + 1
				}
			} else {
				addFloat(&sums[k], math.Float64frombits(s))
			}
		}
	}
	t.fresh, o.fresh, t.into = fresh, from, into
	t.extend(n, o.cols, fresh, true)
	bufs := t.set.Bufs(len(t.cols))
	for _, e := range t.sp.ext {
		t.cols[e.cell].Keep(&bufs[e.cell], &o.cols[e.cell], from, into, e.sign)
	}
	o.release()
}
