package ir

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"math"
	"slices"
	"strconv"
)

// Identity is the identity of one DAG, computed once per submission by
// Identify and handed to everything that keys on it. Both digests derive
// from one encoding of each operator's semantic parameters (appendParams,
// the only place Params is enumerated for identity):
//
//   - the workflow hash (Hash) is name- and order-sensitive — each
//     operator's encoding, output name and input names, in topological
//     order. History, the estimator and WHILE bodies key on it.
//   - Canonical is invariant under what varies freely between submissions
//     of one workflow — intermediate relation names and the order operators
//     were appended in — and keys the plan cache, which replays through Order.
//
// A WHILE body folds into its operator's encoding by the body's workflow
// hash, names included: Carried, CondRel and the outer-name input bridges
// refer to body relation names, so a rename inside a loop body is a
// different workflow under both digests.
type Identity struct {
	DAG *DAG
	// Canonical and Order are set by Identify, not on a Body view. Order
	// holds every operator of DAG, sorted by canonical signature; for two
	// DAGs with equal Canonical the i-th operators correspond.
	Canonical string
	Order     []*Op

	hashes map[*DAG]string
}

// Identify computes d's identity: one encoding pass over d and every nested
// WHILE body, and one refinement of d.
func Identify(d *DAG) *Identity {
	id := &Identity{DAG: d, hashes: map[*DAG]string{}}
	topo, enc := id.encode(d)
	id.Canonical, id.Order = canonicalize(topo, enc)
	return id
}

// Hash returns the workflow hash (16 hex characters) of the identified DAG
// or of one of its WHILE bodies, nested ones included.
func (id *Identity) Hash(d *DAG) string { return id.hashes[d] }

// Body returns the identity of one of those WHILE bodies, for code that
// treats the body as a workflow of its own (the WHILE driver).
func (id *Identity) Body(d *DAG) *Identity { return &Identity{DAG: d, hashes: id.hashes} }

// Hash returns the DAG's workflow hash.
func (d *DAG) Hash() string { return Identify(d).Hash(d) }

// CanonicalHash returns the DAG's canonical hash (16 hex characters).
func CanonicalHash(d *DAG) string { return Identify(d).Canonical }

// encode records the workflow hash of d (and, first, of every WHILE body
// below it) and returns d's operators in topological order with each one's
// type-and-parameter encoding.
func (id *Identity) encode(d *DAG) (topo []*Op, enc [][]byte) {
	topo, err := d.TopoSort()
	if err != nil {
		topo = d.Ops
	}
	enc = make([][]byte, len(topo))
	h := sha256.New()
	var names []byte
	for i, op := range topo {
		body := ""
		if op.Params.Body != nil {
			id.encode(op.Params.Body)
			body = id.hashes[op.Params.Body]
		}
		enc[i] = appendParams(appendInt(nil, int64(op.Type)), &op.Params, body)
		names = appendInt(appendStr(names[:0], op.Out), int64(len(op.Inputs)))
		for _, in := range op.Inputs {
			names = appendStr(names, in.Out)
		}
		h.Write(enc[i])
		h.Write(names)
	}
	id.hashes[d] = hex.EncodeToString(h.Sum(nil)[:8])
	return topo, enc
}

// appendParams appends an unambiguous encoding of every semantic field of
// p; body is the workflow hash of p.Body ("" without one). A field added to
// Params must be added here — TestIdentityMetamorphic fails until it is.
func appendParams(b []byte, p *Params, body string) []byte {
	b = appendStr(b, p.Path)
	b = appendInt(b, int64(len(p.Schema.Cols)))
	for _, c := range p.Schema.Cols {
		b = appendInt(appendStr(b, c.Name), int64(c.Kind))
	}
	b = appendPred(b, p.Pred)
	for _, ss := range [][]string{p.Columns, p.As, p.LeftCols, p.RightCols, p.GroupBy, p.SortBy} {
		b = appendInt(b, int64(len(ss)))
		for _, s := range ss {
			b = appendStr(b, s)
		}
	}
	b = appendInt(b, int64(len(p.Aggs)))
	for _, a := range p.Aggs {
		b = appendStr(appendStr(appendInt(b, int64(a.Func)), a.Col), a.As)
	}
	b = appendOperand(appendOperand(appendStr(b, p.Dst), p.ALeft), p.ARght)
	b = appendStr(appendInt(b, int64(p.AOp)), p.UDFName)
	b = appendInt(strconv.AppendBool(b, p.Desc), int64(p.Limit))
	b = appendStr(appendInt(appendStr(b, body), int64(p.MaxIter)), p.CondRel)
	b = appendInt(b, int64(len(p.Carried)))
	for _, k := range slices.Sorted(maps.Keys(p.Carried)) {
		b = appendStr(appendStr(b, k), p.Carried[k])
	}
	return b
}

func appendPred(b []byte, p *Pred) []byte {
	if p == nil {
		return append(b, '-')
	}
	b = appendInt(appendInt(b, int64(p.Kind)), int64(p.Cmp))
	b = appendOperand(appendOperand(b, p.LHS), p.RHS)
	return appendPred(appendPred(b, p.Left), p.Right)
}

// appendOperand includes the literal's kind: Int(2) and Float(2) divide
// differently.
func appendOperand(b []byte, o Operand) []byte {
	b = appendStr(strconv.AppendBool(b, o.IsCol), o.Col)
	b = appendInt(b, int64(math.Float64bits(o.Scale)))
	b = appendInt(appendInt(b, int64(o.Lit.Kind)), o.Lit.I)
	return appendStr(appendInt(b, int64(math.Float64bits(o.Lit.F))), o.Lit.S)
}

// appendStr length-prefixes s, so adjacent fields cannot run together.
func appendStr(b []byte, s string) []byte {
	return append(append(strconv.AppendInt(b, int64(len(s)), 10), ':'), s...)
}

func appendInt(b []byte, v int64) []byte {
	return append(strconv.AppendInt(b, v, 10), ',')
}

// sig is one operator's signature during refinement.
type sig [sha256.Size]byte

func compareSigs(a, b sig) int { return bytes.Compare(a[:], b[:]) }

// canonicalize computes the canonical hash and order of operators given in
// topological order with their encodings, by Weisfeiler–Leman-style colour
// refinement. Round 0 digests each operator's encoding with, positionally,
// its inputs' signatures — its whole upstream cone. Each later round digests
// a signature with the inputs' and the sorted multiset of the consumers',
// until the partition into equal-signature classes stops changing; twins
// that remain have indistinguishable contexts. They are interchangeable one
// at a time but not independently (two identical branches must pair up
// branch by branch), so the first operator of the lowest twin class gets a
// signature of its own and refinement repeats until every class is single.
func canonicalize(topo []*Op, enc [][]byte) (string, []*Op) {
	n := len(topo)
	pos := make(map[*Op]int, n)
	for i, op := range topo {
		pos[op] = i
	}
	sigs, next := make([]sig, n), make([]sig, n)
	ins, cons := make([][]int, n), make([][]int, n)
	var buf []byte
	for i, op := range topo {
		buf = append(buf[:0], enc[i]...)
		for _, in := range op.Inputs {
			if p, ok := pos[in]; ok {
				buf = append(buf, sigs[p][:]...)
				ins[i] = append(ins[i], p)
				cons[p] = append(cons[p], i)
			}
		}
		sigs[i] = sha256.Sum256(buf)
	}
	var cs []sig
	for classes := 0; ; {
		// Each round's signature includes the previous round's, so the
		// class count only grows; a round that adds none is the fixpoint.
		for k := len(classSizes(sigs)); k > classes; k = len(classSizes(sigs)) {
			classes = k
			for i := range sigs {
				buf = append(buf[:0], sigs[i][:]...)
				for _, p := range ins[i] {
					buf = append(buf, sigs[p][:]...)
				}
				cs = cs[:0]
				for _, c := range cons[i] {
					cs = append(cs, sigs[c])
				}
				slices.SortFunc(cs, compareSigs)
				for _, c := range cs {
					buf = append(buf, c[:]...)
				}
				next[i] = sha256.Sum256(buf)
			}
			sigs, next = next, sigs
		}
		twin, sizes := -1, classSizes(sigs)
		for i, s := range sigs {
			if sizes[s] > 1 && (twin < 0 || compareSigs(s, sigs[twin]) < 0) {
				twin = i
			}
		}
		if twin < 0 {
			break
		}
		sigs[twin] = sha256.Sum256(append(sigs[twin][:], '!'))
	}

	order := slices.Clone(topo)
	slices.SortFunc(order, func(a, b *Op) int { return compareSigs(sigs[pos[a]], sigs[pos[b]]) })
	slices.SortFunc(sigs, compareSigs)
	buf = appendInt(buf[:0], int64(n))
	for _, s := range sigs {
		buf = append(buf, s[:]...)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8]), order
}

func classSizes(sigs []sig) map[sig]int {
	sizes := make(map[sig]int, len(sigs))
	for _, s := range sigs {
		sizes[s]++
	}
	return sizes
}
