package core

import (
	"math/bits"

	"musketeer/internal/engines"
	"musketeer/internal/ir"
)

// opSet is a set of one DAG's operators by search-index number: operator i
// is bit i%64 of word i/64. Every set of one index has index.words words —
// a single word for any workflow of up to 64 operators, and the same code
// for larger ones.
type opSet []uint64

func (s opSet) has(i int) bool { return s[i>>6]>>(uint(i)&63)&1 != 0 }
func (s opSet) add(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }
func (s opSet) del(i int)      { s[i>>6] &^= 1 << (uint(i) & 63) }

// first returns the lowest member (the set must not be empty).
func (s opSet) first() int {
	for w, word := range s {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	panic("core: first of an empty operator set")
}

// each calls fn with every member in ascending (= topological) order.
func (s opSet) each(fn func(i int)) {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			fn(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// searchIndex is the partition search's view of one DAG (the workflow, or a
// WHILE body): operators numbered 0..n-1 in TopoSort order, and every
// relation the search asks about — who feeds whom, who reaches whom, which
// operators are sources, sinks or loops — precomputed as bitsets over those
// numbers. A candidate job is an opSet; testing a merge for cycles, finding
// its external inputs and outputs and keying its memoized score all read the
// index and build no Fragment, map or string.
type searchIndex struct {
	dag   *ir.DAG
	ops   []*ir.Op       // TopoSort order; an operator's number is its position
	num   map[*ir.Op]int // inverse of ops, for callers that arrive holding operators
	words int            // uint64 words per opSet
	// compute lists the non-INPUT operators in ascending order: the
	// exhaustive search's placement order and the DP's default linear order.
	compute []int32

	// n×words slabs, row i belonging to operator i: its direct inputs and
	// consumers, and its strict ancestors and descendants.
	inputs, consumers, anc, desc []uint64
	// sources are the INPUT operators, sinks the operators nobody reads.
	sources, sinks opSet
	// redundant[i]: operator i's repartition provably collapses nothing
	// (Estimator.redundantShuffle), so it pays no shuffle surcharge.
	redundant []bool

	// vols is the dense snapshot of the estimator's per-operator size maps,
	// taken on first use.
	vols *opVolumes
	memo fragMemo
}

// opVolumes holds an index's per-operator volume estimates by number.
type opVolumes struct {
	size []int64       // estimated output bytes
	in   []int64       // summed size of Inputs, counting a repeated input twice
	obs  []Observation // history observation; the zero value means none
}

func (x *searchIndex) row(slab []uint64, i int) opSet {
	return opSet(slab[i*x.words : (i+1)*x.words])
}

func (x *searchIndex) newSet() opSet { return make(opSet, x.words) }

// newSearchIndex numbers the DAG and derives the relation bitsets.
func newSearchIndex(e *Estimator, d *ir.DAG) (*searchIndex, error) {
	order, err := d.TopoSort()
	if err != nil {
		return nil, err
	}
	n := len(order)
	x := &searchIndex{
		dag: d, ops: order, num: make(map[*ir.Op]int, n),
		words:     max(1, (n+63)/64),
		redundant: make([]bool, n),
	}
	for i, op := range order {
		x.num[op] = i
	}
	slab := make([]uint64, (4*n+2)*x.words)
	carve := func(rows int) []uint64 {
		s := slab[:rows*x.words]
		slab = slab[rows*x.words:]
		return s
	}
	x.inputs, x.consumers, x.anc, x.desc = carve(n), carve(n), carve(n), carve(n)
	x.sources, x.sinks = carve(1), carve(1)
	for i, op := range order {
		if op.Type == ir.OpInput {
			x.sources.add(i)
		} else {
			x.compute = append(x.compute, int32(i))
		}
		x.redundant[i] = e.redundantShuffle(op)
		anc := x.row(x.anc, i)
		for _, in := range op.Inputs {
			j := x.num[in]
			x.row(x.inputs, i).add(j)
			x.row(x.consumers, j).add(i)
			anc.add(j)
			for w, word := range x.row(x.anc, j) {
				anc[w] |= word
			}
		}
	}
	// Reverse topological order: every consumer of i has already folded its
	// own descendants into i's row by the time i is reached.
	for i := n - 1; i >= 0; i-- {
		desc := x.row(x.desc, i)
		x.row(x.inputs, i).each(func(j int) {
			up := x.row(x.desc, j)
			up.add(i)
			for w, word := range desc {
				up[w] |= word
			}
		})
		if isZero(x.row(x.consumers, i)) {
			x.sinks.add(i)
		}
	}
	return x, nil
}

func isZero(s opSet) bool {
	for _, word := range s {
		if word != 0 {
			return false
		}
	}
	return true
}

// volumes returns the dense size snapshot, taking it from the estimator's
// maps on first use.
func (x *searchIndex) volumes(e *Estimator) *opVolumes {
	if x.vols != nil {
		return x.vols
	}
	n := len(x.ops)
	v := &opVolumes{size: make([]int64, n), in: make([]int64, n), obs: make([]Observation, n)}
	for i, op := range x.ops {
		v.size[i] = e.sizes[op]
		v.obs[i] = e.opObs[op]
		for _, p := range op.Inputs {
			v.in[i] += e.sizes[p]
		}
	}
	x.vols = v
	return v
}

// numbers translates operators of the indexed DAG to their numbers.
func (x *searchIndex) numbers(ops []*ir.Op) []int32 {
	nums := make([]int32, len(ops))
	for i, op := range ops {
		nums[i] = int32(x.num[op])
	}
	return nums
}

// operators lists a set's members as operators, in topological order.
func (x *searchIndex) operators(set opSet) []*ir.Op {
	var ops []*ir.Op
	set.each(func(i int) { ops = append(ops, x.ops[i]) })
	return ops
}

// mergeCreatesCycle reports whether adding op to the group would make the
// job quotient graph cyclic: some operator outside the group is both a
// descendant of a member (below is the union of the members' descendant
// rows) and an ancestor of op, so the merged job would feed and depend on
// that operator's job. Ancestor rows are strict, so op itself never counts.
func (x *searchIndex) mergeCreatesCycle(set, below opSet, op int) bool {
	for w, anc := range x.row(x.anc, op) {
		if below[w]&^set[w]&anc != 0 {
			return true
		}
	}
	return false
}

// candidate is one search's reusable description of the operator set being
// scored: the set, its compute members (as numbers and as operators), its
// first WHILE and its external input and output sets — exactly what
// ir.NewFragment would derive, read off the index.
type candidate struct {
	set           opSet
	nums          []int32
	ops           []*ir.Op
	while         *ir.Op
	extIn, extOut opSet
}

func (x *searchIndex) newCandidate() *candidate {
	return &candidate{extIn: x.newSet(), extOut: x.newSet()}
}

// describe fills c for the set (which c then aliases). External inputs are
// the members' inputs outside the set plus member INPUTs; external outputs
// are compute members that are sinks or have a consumer outside the set.
func (x *searchIndex) describe(set opSet, c *candidate) {
	c.set, c.nums, c.ops, c.while = set, c.nums[:0], c.ops[:0], nil
	clear(c.extIn)
	clear(c.extOut)
	for w, word := range set {
		for word &^= x.sources[w]; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			op := x.ops[i]
			c.nums, c.ops = append(c.nums, int32(i)), append(c.ops, op)
			if c.while == nil && op.Type == ir.OpWhile {
				c.while = op
			}
			if x.sinks.has(i) || x.consumedOutside(set, i) {
				c.extOut.add(i)
			}
			for w2, in := range x.row(x.inputs, i) {
				c.extIn[w2] |= in
			}
		}
	}
	for w, word := range set {
		c.extIn[w] = c.extIn[w]&^word | word&x.sources[w]
	}
}

// describeFragment is describe for a built Fragment: the candidate carries
// the fragment's own external inputs and outputs — a forced output included
// — instead of the ones the index would derive.
func (x *searchIndex) describeFragment(f *ir.Fragment) *candidate {
	c := x.newCandidate()
	c.set, c.ops, c.while = x.newSet(), f.ComputeOps(), f.While()
	c.nums = x.numbers(c.ops)
	for _, op := range f.Ops {
		c.set.add(x.num[op])
	}
	for _, in := range f.ExtIn {
		c.extIn.add(x.num[in])
	}
	for _, out := range f.ExtOut {
		c.extOut.add(x.num[out])
	}
	return c
}

// consumedOutside reports whether an operator outside the set reads i.
func (x *searchIndex) consumedOutside(set opSet, i int) bool {
	for w, cons := range x.row(x.consumers, i) {
		if cons&^set[w] != 0 {
			return true
		}
	}
	return false
}

// boundaryBytes sums the candidate's PULL and PUSH volumes: every external
// input and output at its full (text) size, which is what a run is charged
// whatever codec the file is stored in.
func (x *searchIndex) boundaryBytes(c *candidate, v *opVolumes) (pull, push int64) {
	c.extIn.each(func(i int) { pull += v.size[i] })
	c.extOut.each(func(i int) { push += v.size[i] })
	return pull, push
}

// addOpVolumes folds the estimated per-operator volumes of the compute
// operators nums into v, each running iters times (WHILE bodies).
func (x *searchIndex) addOpVolumes(v *engines.Volumes, vol *opVolumes, nums []int32, eng *engines.Engine, iters int64) {
	for _, i := range nums {
		t := x.ops[i].Type
		in, out := vol.in[i], vol.size[i]
		proc, gen := in+out, out
		shuffled := ir.IsShuffleOp(t) && !x.redundant[i]
		if obs := &vol.obs[i]; obs.ProcBytes > 0 {
			// Damped measured volumes: charge what the engine's PROCESS
			// phase actually charged for this operator (its accounting —
			// unconditional shuffle surcharge included — is the ground
			// truth the estimate is converging toward).
			in, proc = obs.InBytes, obs.ProcBytes
			gen = max(0, obs.ProcBytes-obs.InBytes)
			shuffled = ir.IsShuffleOp(t)
		}
		v.Add(eng, t, in*iters, proc*iters, gen*iters, out, shuffled)
	}
}

// fragMemo maps (engine-set ordinal, operator set) to the cheapest engine
// and cost for running the set as one job. Open addressing over a flat key
// slab: a lookup mixes the set's words where they lie and compares them in
// place, so a hit builds, sorts and allocates nothing.
type fragMemo struct {
	slots []int32 // 1 + entry number, 0 = empty; len is a power of two
	// Entry k is keys[k*stride:(k+1)*stride] — the ordinal, then the set's
	// words — and vals[k].
	keys []uint64
	vals []fragChoice
}

func memoHash(engs uint32, set opSet) uint64 {
	h := uint64(engs) + 0x9e3779b97f4a7c15
	for _, word := range set {
		// splitmix64's finalizer per word: adjacent sets (one bit apart)
		// land far apart, which linear probing needs.
		h ^= word
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// find returns the key's slot: occupied (ok) or the empty one where the key
// belongs. The table is never full, so the probe ends.
func (m *fragMemo) find(engs uint32, set opSet) (slot int, ok bool) {
	stride := len(set) + 1
	mask := len(m.slots) - 1
probe:
	for slot = int(memoHash(engs, set)) & mask; ; slot = (slot + 1) & mask {
		k := int(m.slots[slot]) - 1
		if k < 0 {
			return slot, false
		}
		key := m.keys[k*stride : (k+1)*stride]
		if key[0] != uint64(engs) {
			continue
		}
		for w, word := range set {
			if key[1+w] != word {
				continue probe
			}
		}
		return slot, true
	}
}

func (m *fragMemo) get(engs uint32, set opSet) (fragChoice, bool) {
	if len(m.slots) == 0 {
		return fragChoice{}, false
	}
	slot, ok := m.find(engs, set)
	if !ok {
		return fragChoice{}, false
	}
	return m.vals[m.slots[slot]-1], true
}

func (m *fragMemo) put(engs uint32, set opSet, c fragChoice) {
	if 2*(len(m.vals)+1) > len(m.slots) { // keep the load under one half
		m.slots = make([]int32, max(64, 2*len(m.slots)))
		stride := len(set) + 1
		for k := range m.vals {
			key := m.keys[k*stride : (k+1)*stride]
			slot, _ := m.find(uint32(key[0]), opSet(key[1:]))
			m.slots[slot] = int32(k + 1)
		}
	}
	slot, _ := m.find(engs, set) // a put follows a missed get: the key is new
	m.keys = append(append(m.keys, uint64(engs)), set...)
	m.vals = append(m.vals, c)
	m.slots[slot] = int32(len(m.vals))
}
