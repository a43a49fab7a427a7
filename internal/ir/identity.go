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
// Identify and handed to everything that keys on it. Both of its digests
// derive from one encoding of each operator's semantic parameters
// (appendParams, the only place Params is enumerated for identity):
//
//   - every operator's key (Key), in the DAG and in each WHILE body, is a
//     Merkle digest of its encoding and its inputs' keys: it names what the
//     operator computes, whatever the intermediate relations are called and
//     in whatever order the operators were appended. History keys on it.
//   - Canonical refines the DAG's keys by their consumers' until every
//     operator is told apart, and keys the plan cache, which replays through
//     Order.
//
// A body operator's encoding also holds its output name, and a body INPUT's
// the key of the WHILE input it binds to: Carried, CondRel and binding refer
// to body relation names, so a rename inside a loop body changes keys and
// canonical hash. A WHILE's encoding folds in a digest of its body's keys.
type Identity struct {
	DAG *DAG
	// Canonical and Order describe DAG itself. Order holds every operator of
	// DAG, sorted by canonical signature; for two DAGs with equal Canonical
	// the i-th operators correspond.
	Canonical string
	Order     []*Op

	keys map[*Op]string
}

// Identify computes d's identity: one digest pass over d and every nested
// WHILE body, and one refinement of d.
func Identify(d *DAG) *Identity {
	n := d.NumOps()
	id := &Identity{DAG: d, keys: make(map[*Op]string, n)}
	sigs := make(map[*Op]sig, n)
	topo := id.digest(d, nil, sigs)
	id.Canonical, id.Order = canonicalize(topo, sigs)
	return id
}

// Key returns the key (16 hex characters) of an operator of the identified
// DAG or of one of its WHILE bodies, nested ones included.
func (id *Identity) Key(op *Op) string { return id.keys[op] }

// Hash returns the DAG's canonical hash. It is the same digest as
// CanonicalHash, kept under its own name for the benchmark harness, which
// times it as a layer.
func (d *DAG) Hash() string { return CanonicalHash(d) }

// CanonicalHash returns the DAG's canonical hash (16 hex characters).
func CanonicalHash(d *DAG) string { return Identify(d).Canonical }

// digest records the signature and key of every operator of d — the body of
// the WHILE w, when w is non-nil — and, first, of every WHILE body below it,
// and returns d's operators in topological order.
func (id *Identity) digest(d *DAG, w *Op, sigs map[*Op]sig) []*Op {
	topo, err := d.TopoSort()
	if err != nil {
		topo = d.Ops
	}
	var buf []byte
	for _, op := range topo {
		body := ""
		if b := op.Params.Body; b != nil {
			id.digest(b, op, sigs)
			bs := make([]sig, len(b.Ops))
			for i, bop := range b.Ops {
				bs[i] = sigs[bop]
			}
			slices.SortFunc(bs, compareSigs)
			h := sha256.New()
			for _, s := range bs {
				h.Write(s[:])
			}
			body = string(h.Sum(nil))
		}
		buf = appendParams(appendInt(buf[:0], int64(op.Type)), &op.Params, body)
		if w != nil {
			buf = appendStr(buf, op.Out)
			if op.Type == OpInput {
				if src, ok := sigs[w.BoundInput(op)]; ok {
					buf = append(buf, src[:]...)
				}
			}
		}
		for _, in := range op.Inputs {
			if s, ok := sigs[in]; ok {
				buf = append(buf, s[:]...)
			}
		}
		s := sig(sha256.Sum256(buf))
		sigs[op] = s
		id.keys[op] = hex.EncodeToString(s[:8])
	}
	return topo
}

// appendParams appends an unambiguous encoding of every semantic field of
// p; body is the digest of p.Body's keys ("" without one). A field added to
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
// topological order, by Weisfeiler–Leman-style colour refinement. Round 0 is
// each operator's signature from digest — its encoding with its inputs'
// signatures, its whole upstream cone. Each later round digests a signature
// with the inputs' and the sorted multiset of the consumers', until the
// partition into equal-signature classes stops changing; twins that remain
// have indistinguishable contexts. They are interchangeable one at a time
// but not independently (two identical branches must pair up branch by
// branch), so the first operator of the lowest twin class gets a signature
// of its own and refinement repeats until every class is single.
func canonicalize(topo []*Op, round0 map[*Op]sig) (string, []*Op) {
	n := len(topo)
	pos := make(map[*Op]int, n)
	for i, op := range topo {
		pos[op] = i
	}
	sigs, next := make([]sig, n), make([]sig, n)
	ins, cons := make([][]int, n), make([][]int, n)
	for i, op := range topo {
		sigs[i] = round0[op]
		for _, in := range op.Inputs {
			if p, ok := pos[in]; ok {
				ins[i] = append(ins[i], p)
				cons[p] = append(cons[p], i)
			}
		}
	}
	var buf []byte
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
