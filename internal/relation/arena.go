package relation

import (
	"math/bits"
	"sync"
)

// Pool recycles slices of T by capacity: class k holds slices of capacity
// 1<<k, so a slice taken for n elements holds fewer than 2n. A pooled slice
// holds whatever its last user left in it.
type Pool[T any] [bits.UintSize]sync.Pool

// Get returns a slice of at least n elements, the pool's when it has one of
// n's class, at full length.
func (p *Pool[T]) Get(n int) *[]T {
	k := bits.Len(uint(max(n, 1) - 1))
	s, _ := p[k].Get().(*[]T)
	if s == nil {
		b := make([]T, 1<<k)
		s = &b
	}
	return s
}

// Put hands s back to its class; no one may touch it after.
func (p *Pool[T]) Put(s *[]T) { p[bits.Len(uint(cap(*s)))-1].Put(s) }

// valueSlabs and rowHeaders back every Arena: the readers' and the
// constructing stages' alike.
var (
	valueSlabs Pool[Value]
	rowHeaders Pool[Row]
)

// Arena is the storage a pipeline stage builds its batches in — a slab of
// cells and a buffer of row headers — each taken from a pool when the stage
// first needs more than it holds and reused across batches until Release
// hands both back, which a stage does once its source is drained: by the
// RowSource contract its last batch is dead by then. A pooled slab holds its
// last user's cells, so whoever takes Values overwrites every field of every
// cell it hands on.
type Arena struct {
	// Fresh allocates cells per batch instead: the rows escape the pipeline
	// (the last constructing stage before a materialized output, or a reader
	// whose rows a pure-SELECT pipeline passes out). Headers never escape a
	// batch — a consumer that keeps rows copies them — so they are pooled
	// either way.
	Fresh bool
	vals  *[]Value
	rows  *[]Row
}

// Values returns n cells: new and zeroed for a fresh arena, else the
// arena's slab, holding stale cells.
func (a *Arena) Values(n int) []Value {
	if a.Fresh {
		return make([]Value, n)
	}
	if a.vals == nil || cap(*a.vals) < n {
		a.releaseValues()
		a.vals = valueSlabs.Get(n)
	}
	return (*a.vals)[:n]
}

// Rows returns a header buffer of length n, holding stale headers.
func (a *Arena) Rows(n int) []Row {
	if a.rows == nil || cap(*a.rows) < n {
		a.releaseRows()
		a.rows = rowHeaders.Get(n)
	}
	return (*a.rows)[:n]
}

// Release hands the slab and the headers back: no row taken from the arena
// may be read again, unless it came from a fresh arena's cells.
func (a *Arena) Release() {
	a.releaseValues()
	a.releaseRows()
}

func (a *Arena) releaseValues() {
	if a.vals != nil {
		valueSlabs.Put(a.vals)
		a.vals = nil
	}
}

// releaseRows clears the headers first, so a pooled buffer keeps no fresh
// arena's escaped cells alive.
func (a *Arena) releaseRows() {
	if a.rows != nil {
		clear(*a.rows)
		rowHeaders.Put(a.rows)
		a.rows = nil
	}
}
