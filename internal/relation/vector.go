package relation

import (
	"math/bits"
	"sync"
)

// Vec is one column of a batch: its cells in one vector of their kind — Ints
// or Floats, with each number's text width in Widths (0 while not measured),
// or Strs — or, for a column whose cells are not all of one kind, Vals. A Vec
// is a view: the stage that returned its batch owns the storage until its
// next Next call, and a stage that passes a column on unchanged passes the
// view, with the text width its tap summed (see TextBytes).
type Vec struct {
	Kind   Kind // every cell's, when Vals is nil
	Ints   []int64
	Floats []float64
	Widths []uint8
	Strs   []string
	Vals   []Value
	sum    int64 // 1 + the cells' summed text widths, once TextBytes has summed them
}

// Cell returns cell i as a Value, carrying a float's width.
func (v *Vec) Cell(i int) Value {
	switch {
	case v.Vals != nil:
		return v.Vals[i]
	case v.Kind == KindInt:
		return Value{Kind: KindInt, w: v.Widths[i], I: v.Ints[i]}
	case v.Kind == KindFloat:
		return Value{Kind: KindFloat, w: v.Widths[i], F: v.Floats[i]}
	}
	return Str(v.Strs[i])
}

// Is reports whether every cell of v is of kind k.
func (v *Vec) Is(k Kind) bool { return v.Vals == nil && v.Kind == k }

// AsInt is cell i's AsInt.
func (v *Vec) AsInt(i int) int64 {
	if v.Is(KindInt) {
		return v.Ints[i]
	}
	cell := v.Cell(i)
	return cell.AsInt()
}

// AsFloat is cell i's AsFloat.
func (v *Vec) AsFloat(i int) float64 {
	if v.Is(KindFloat) {
		return v.Floats[i]
	}
	cell := v.Cell(i)
	return cell.AsFloat()
}

// TextBytes returns the summed text width of the column's first n cells, n
// being its batch's row count: a sum an earlier tap took on the same view, or
// one taken now — floats through m — caching each width it measures in the
// vector, whose storage the pipeline owns.
func (v *Vec) TextBytes(n int, m *WidthMemo) int64 {
	if v.sum != 0 {
		return v.sum - 1
	}
	var t int64
	switch {
	case v.Vals != nil:
		for i := range v.Vals[:n] {
			c := &v.Vals[i]
			if c.Kind == KindString {
				t += int64(len(c.S))
				continue
			}
			if c.w == 0 {
				c.w = uint8(c.measure(m))
			}
			t += int64(c.w)
		}
	case v.Kind == KindInt:
		ws := v.Widths[:n]
		for i, x := range v.Ints[:n] {
			if ws[i] == 0 {
				ws[i] = uint8(intTextLen(x))
			}
			t += int64(ws[i])
		}
	case v.Kind == KindFloat:
		ws := v.Widths[:n]
		for i, f := range v.Floats[:n] {
			if ws[i] == 0 {
				c := Float(f)
				ws[i] = uint8(c.measure(m))
			}
			t += int64(ws[i])
		}
	default:
		for _, s := range v.Strs[:n] {
			t += int64(len(s))
		}
	}
	v.sum = t + 1
	return t
}

// Batch is one unit of rows flowing through a streaming operator pipeline: N
// rows, a Vec per column. Src, when set, holds the rows the batch was cut
// from, row i being Src[i]: a bound relation's own rows, which outlive the
// pipeline, so a stage that only filters may hand them on by reference.
//
// A batch is a view, not a copy: its vectors are owned by the stage that
// returned it and are only valid until the next Next call on that stage.
// Consumers that keep cells past the pull loop copy them (AppendRows).
type Batch struct {
	N    int
	Cols []Vec
	Src  []Row
}

// Empty reports whether the batch carries no rows. By the RowSource
// contract an empty batch means the source is exhausted.
func (b Batch) Empty() bool { return b.N == 0 }

// AppendRows appends the batch's rows to dst as new rows, cut from one
// exactly sized slab of cells.
func (b Batch) AppendRows(dst []Row) []Row {
	if b.N == 0 {
		return dst
	}
	at := len(dst)
	dst = cutRows(dst, make([]Value, b.N*len(b.Cols)), b.N, len(b.Cols))
	for c := range b.Cols {
		fillColumn(dst[at:], c, &b.Cols[c])
	}
	return dst
}

// fillColumn writes v's cells into column c of rows, one per row, each
// number with its width: an int's counted, a float's as the vector has it.
func fillColumn(rows []Row, c int, v *Vec) {
	switch {
	case v.Vals != nil:
		for i, row := range rows {
			row[c] = v.Vals[i]
		}
	case v.Kind == KindInt:
		for i, row := range rows {
			x, w := v.Ints[i], v.Widths[i]
			if w == 0 {
				w = uint8(intTextLen(x))
			}
			row[c] = Value{Kind: KindInt, w: w, I: x}
		}
	case v.Kind == KindFloat:
		for i, row := range rows {
			row[c] = Value{Kind: KindFloat, w: v.Widths[i], F: v.Floats[i]}
		}
	default:
		for i, row := range rows {
			row[c] = Str(v.Strs[i])
		}
	}
}

// cutRows appends n rows of arity cells, cut from vals.
func cutRows(dst []Row, vals []Value, n, arity int) []Row {
	if cap(dst)-len(dst) < n {
		dst = append(make([]Row, 0, len(dst)+n), dst...)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, vals[i*arity:(i+1)*arity:(i+1)*arity])
	}
	return dst
}

// Pool recycles slices of T by capacity: class k holds slices of capacity
// 1<<k, so a slice taken for n elements holds fewer than 2n. A pooled slice
// holds whatever its last user left in it. (A pipeline stage's vectors
// recycle whole, through VecSet.)
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

// VecBuf is the storage one column's vectors are cut from, batch after batch:
// a buffer per representation, grown to the power-of-two class of the largest
// batch it served. A VecBuf belongs to a VecSet, and its buffers go back to
// the pool with it, holding their last user's cells: whoever takes one writes
// every element it hands on.
type VecBuf struct {
	ints   []int64
	floats []float64
	widths []uint8
	strs   []string
	vals   []Value
	rows   []Row
	idx    []int32
}

// take returns n elements of *buf, replacing it with a slice of n's class
// when it holds fewer. *buf's length is the most elements taken since the
// store was, which Release clears.
func take[T any](buf *[]T, n int) []T {
	switch {
	case cap(*buf) < n:
		*buf = make([]T, n, 1<<bits.Len(uint(n-1)))
	case len(*buf) < n:
		*buf = (*buf)[:n]
	}
	return (*buf)[:n]
}

// extend is take for a buffer that accumulates: the first keep elements
// survive a replacement, which takes room for twice n, so appends copy each
// element a bounded number of times.
func extend[T any](buf *[]T, n, keep int) []T {
	if cap(*buf) < n {
		grown := make([]T, n, 1<<bits.Len(uint(2*n-1)))
		copy(grown, (*buf)[:keep])
		*buf = grown
	}
	return take(buf, n)
}

// Ints returns n stale int cells and their n width bytes.
func (b *VecBuf) Ints(n int) ([]int64, []uint8) { return take(&b.ints, n), take(&b.widths, n) }

// Floats returns n stale float cells and their n width bytes.
func (b *VecBuf) Floats(n int) ([]float64, []uint8) { return take(&b.floats, n), take(&b.widths, n) }

// Strs returns n stale string cells.
func (b *VecBuf) Strs(n int) []string { return take(&b.strs, n) }

// Values returns n stale cells of any kind.
func (b *VecBuf) Values(n int) []Value { return take(&b.vals, n) }

// Rows returns n stale row headers.
func (b *VecBuf) Rows(n int) []Row { return take(&b.rows, n) }

// Idx returns n stale row numbers.
func (b *VecBuf) Idx(n int) []int32 { return take(&b.idx, n) }

// VecSet is the columns a stage returns and the buffers they are cut from:
// one store taken from vecStores the first time the stage needs it, reused
// batch after batch and handed back, buffers and all, by Release — which a
// stage does once its source is drained: by the RowSource contract its last
// batch is dead by then. One pool for every store keeps a stage to one Get.
type VecSet struct{ s *vecStore }

type vecStore struct {
	cols []Vec
	bufs []VecBuf
}

var vecStores sync.Pool

func (s *VecSet) store() *vecStore {
	if s.s == nil {
		if s.s, _ = vecStores.Get().(*vecStore); s.s == nil {
			s.s = new(vecStore)
		}
	}
	return s.s
}

// Cols returns n column headers, stale.
func (s *VecSet) Cols(n int) []Vec { return take(&s.store().cols, n) }

// Bufs returns n buffers: the same ones on every call.
func (s *VecSet) Bufs(n int) []VecBuf { st := s.store(); return extend(&st.bufs, n, len(st.bufs)) }

// Release hands the store back, cleared first.
func (s *VecSet) Release() {
	if st := s.s; st != nil {
		s.Clear()
		vecStores.Put(st)
		s.s = nil
	}
}

// Clear clears the headers and the buffers that hold pointers, as far as they
// were used, so a store that is kept or pooled keeps no relation's strings or
// rows alive. The set keeps its store.
func (s *VecSet) Clear() {
	if st := s.s; st != nil {
		st.cols = wipe(st.cols)
		for i := range st.bufs {
			b := &st.bufs[i]
			b.strs, b.vals, b.rows = wipe(b.strs), wipe(b.vals), wipe(b.rows)
		}
	}
}

// wipe clears the elements of buf taken since it was last wiped.
func wipe[T any](buf []T) []T {
	clear(buf)
	return buf[:0]
}

// Gather returns the cells of v at idx, in that order, in buf's storage.
func (v *Vec) Gather(buf *VecBuf, idx []int32) Vec {
	n := len(idx)
	switch {
	case v.Vals != nil:
		out := buf.Values(n)
		for i, j := range idx {
			out[i] = v.Vals[j]
		}
		return Vec{Vals: out}
	case v.Kind == KindInt:
		out, ws := buf.Ints(n)
		for i, j := range idx {
			out[i], ws[i] = v.Ints[j], v.Widths[j]
		}
		return Vec{Kind: KindInt, Ints: out, Widths: ws}
	case v.Kind == KindFloat:
		out, ws := buf.Floats(n)
		for i, j := range idx {
			out[i], ws[i] = v.Floats[j], v.Widths[j]
		}
		return Vec{Kind: KindFloat, Floats: out, Widths: ws}
	}
	out := buf.Strs(n)
	for i, j := range idx {
		out[i] = v.Strs[j]
	}
	return Vec{Kind: KindString, Strs: out}
}

// length returns the number of cells v holds.
func (v *Vec) length() int {
	switch {
	case v.Vals != nil:
		return len(v.Vals)
	case v.Kind == KindInt:
		return len(v.Ints)
	case v.Kind == KindFloat:
		return len(v.Floats)
	}
	return len(v.Strs)
}

// allOf reports whether src's cells at idx — its first m when idx is nil —
// are all of kind k.
func (v *Vec) allOf(k Kind, idx []int32, m int) bool {
	if v.Vals == nil {
		return v.Kind == k
	}
	for i := range m {
		if idx != nil {
			i = int(idx[i])
		}
		if v.Vals[i].Kind != k {
			return false
		}
	}
	return true
}

// toVals returns v's first n cells as Vals in buf's storage, with room for m.
func (v *Vec) toVals(buf *VecBuf, n, m int) Vec {
	out := extend(&buf.vals, m, 0)
	for i := range n {
		out[i] = v.Cell(i)
	}
	return Vec{Vals: out}
}

// Extend returns v, a column of n cells in buf's storage, with src's cells
// at idx appended: a column of one kind — its first cell's, when v was empty
// — while every cell is of it, else Vals, into which v's cells are copied
// once. The buffers grow by doubling, so an accumulating column copies each
// cell a bounded number of times.
func (v Vec) Extend(buf *VecBuf, n int, src *Vec, idx []int32) Vec {
	if len(idx) == 0 {
		return v
	}
	m := n + len(idx)
	if n == 0 {
		v = Vec{Kind: src.Cell(int(idx[0])).Kind}
	}
	if v.Vals == nil && !src.allOf(v.Kind, idx, len(idx)) {
		v = v.toVals(buf, n, m)
	}
	switch {
	case v.Vals != nil:
		out := extend(&buf.vals, m, n)
		for k, i := range idx {
			out[n+k] = src.Cell(int(i))
		}
		return Vec{Vals: out}
	case v.Kind == KindInt:
		out, ws := extend(&buf.ints, m, n), extend(&buf.widths, m, n)
		for k, i := range idx {
			if src.Vals == nil {
				out[n+k], ws[n+k] = src.Ints[i], src.Widths[i]
			} else {
				out[n+k], ws[n+k] = src.Vals[i].I, src.Vals[i].w
			}
		}
		return Vec{Kind: KindInt, Ints: out, Widths: ws}
	case v.Kind == KindFloat:
		out, ws := extend(&buf.floats, m, n), extend(&buf.widths, m, n)
		for k, i := range idx {
			if src.Vals == nil {
				out[n+k], ws[n+k] = src.Floats[i], src.Widths[i]
			} else {
				out[n+k], ws[n+k] = src.Vals[i].F, src.Vals[i].w
			}
		}
		return Vec{Kind: KindFloat, Floats: out, Widths: ws}
	}
	out := extend(&buf.strs, m, n)
	for k, i := range idx {
		if src.Vals == nil {
			out[n+k] = src.Strs[i]
		} else {
			out[n+k] = src.Vals[i].S
		}
	}
	return Vec{Kind: KindString, Strs: out}
}

// Keep replaces cell into[k] of v, for every k, by src's cell from[k] (cell k
// when from is nil) where that lies further out — below it for sign -1, above
// it for +1, as Value.Compare orders them — in buf's storage: a cell of
// another kind turns v into Vals. This is MIN's and MAX's step.
func (v *Vec) Keep(buf *VecBuf, src *Vec, from, into []int32, sign int) {
	typed := v.Vals == nil && src.Vals == nil && v.Kind == src.Kind // a kind it keeps
	for k, g := range into {
		i := k
		if from != nil {
			i = int(from[k])
		}
		var out bool
		switch {
		case !typed:
			out = src.Cell(i).Compare(v.Cell(int(g)))*sign > 0
		case v.Kind == KindInt:
			out = sign < 0 && src.Ints[i] < v.Ints[g] || sign > 0 && src.Ints[i] > v.Ints[g]
		case v.Kind == KindFloat:
			out = sign < 0 && src.Floats[i] < v.Floats[g] || sign > 0 && src.Floats[i] > v.Floats[g]
		default:
			out = sign < 0 && src.Strs[i] < v.Strs[g] || sign > 0 && src.Strs[i] > v.Strs[g]
		}
		if out {
			v.set(buf, int(g), src.Cell(i))
		}
	}
}

// set writes c into cell i of v, turning v into Vals in buf's storage if c is
// of another kind.
func (v *Vec) set(buf *VecBuf, i int, c Value) {
	switch {
	case v.Vals == nil && c.Kind != v.Kind:
		n := v.length()
		*v = v.toVals(buf, n, n)
		fallthrough
	case v.Vals != nil:
		v.Vals[i] = c
	case c.Kind == KindInt:
		v.Ints[i], v.Widths[i] = c.I, c.w
	case c.Kind == KindFloat:
		v.Floats[i], v.Widths[i] = c.F, c.w
	default:
		v.Strs[i] = c.S
	}
}

// Fill copies src's first m cells into cells [at, at+m) of v, a column of n
// cells allocated exactly, of src's kind, by the fill at 0; a later src of
// another kind turns v into Vals, the cells filled so far copied.
func (v *Vec) Fill(n, at int, src *Vec, m int) {
	if at == 0 {
		switch {
		case !src.allOf(src.Cell(0).Kind, nil, m):
			*v = Vec{Vals: make([]Value, n)}
		case src.Cell(0).Kind == KindInt:
			*v = Vec{Kind: KindInt, Ints: make([]int64, n), Widths: make([]uint8, n)}
		case src.Cell(0).Kind == KindFloat:
			*v = Vec{Kind: KindFloat, Floats: make([]float64, n), Widths: make([]uint8, n)}
		default:
			*v = Vec{Kind: KindString, Strs: make([]string, n)}
		}
	}
	if v.Vals == nil && !src.allOf(v.Kind, nil, m) {
		vals := make([]Value, n)
		for i := range at {
			vals[i] = v.Cell(i)
		}
		*v = Vec{Vals: vals}
	}
	switch {
	case v.Vals != nil:
		for i := range m {
			v.Vals[at+i] = src.Cell(i)
		}
	case src.Vals != nil: // of v's kind throughout
		for i := range m {
			v.set(nil, at+i, src.Vals[i])
		}
	case v.Kind == KindInt:
		copy(v.Ints[at:], src.Ints[:m])
		copy(v.Widths[at:], src.Widths[:m])
	case v.Kind == KindFloat:
		copy(v.Floats[at:], src.Floats[:m])
		copy(v.Widths[at:], src.Widths[:m])
	default:
		copy(v.Strs[at:], src.Strs[:m])
	}
}

// Transpose returns column c of rows as a vector in buf's storage: typed when
// every cell is of the first one's kind, else the cells themselves. The rows
// are read once unless a cell of another kind turns up.
func (b *VecBuf) Transpose(rows []Row, c int) Vec {
	if len(rows) == 0 {
		return Vec{}
	}
	n := len(rows)
	switch rows[0][c].Kind {
	case KindInt:
		out, ws := b.Ints(n)
		for i, row := range rows {
			v := &row[c]
			if v.Kind != KindInt {
				return b.cells(rows, c)
			}
			out[i], ws[i] = v.I, v.w
		}
		return Vec{Kind: KindInt, Ints: out, Widths: ws}
	case KindFloat:
		out, ws := b.Floats(n)
		for i, row := range rows {
			v := &row[c]
			if v.Kind != KindFloat {
				return b.cells(rows, c)
			}
			out[i], ws[i] = v.F, v.w
		}
		return Vec{Kind: KindFloat, Floats: out, Widths: ws}
	}
	out := b.Strs(n)
	for i, row := range rows {
		v := &row[c]
		if v.Kind != KindString {
			return b.cells(rows, c)
		}
		out[i] = v.S
	}
	return Vec{Kind: KindString, Strs: out}
}

// cells is Transpose for a column of mixed kinds.
func (b *VecBuf) cells(rows []Row, c int) Vec {
	out := b.Values(len(rows))
	for i, row := range rows {
		out[i] = row[c]
	}
	return Vec{Vals: out}
}

// Collector gathers what one pipeline range materializes, a chunk per batch:
// a copy of the batch's vectors in a store of its own, or, for a batch that
// carries its source rows, those rows, kept by reference. Rows builds the
// rows of one or more collectors at the end, exactly sized. The zero value is
// ready for rows of any arity.
type Collector struct {
	chunks *[]chunk // from chunkLists
}

// chunk is one batch a Collector holds: n rows, as src or in set's vectors.
type chunk struct {
	n   int
	src []Row
	set VecSet
}

var chunkLists sync.Pool

// Append adds b's rows after those collected so far.
func (c *Collector) Append(b *Batch) {
	if c.chunks == nil {
		if c.chunks, _ = chunkLists.Get().(*[]chunk); c.chunks == nil {
			c.chunks = new([]chunk)
		}
	}
	*c.chunks = append(*c.chunks, chunk{n: b.N})
	ch := &(*c.chunks)[len(*c.chunks)-1]
	arity := len(b.Cols)
	bufs := ch.set.Bufs(arity + 1)
	if b.Src != nil {
		ch.src = bufs[arity].Rows(b.N)
		copy(ch.src, b.Src)
		return
	}
	cols := ch.set.Cols(arity)
	for k := range cols {
		cols[k] = b.Cols[k].copyInto(&bufs[k], b.N)
	}
}

// copyInto returns a copy of v's first n cells in buf's storage.
func (v *Vec) copyInto(buf *VecBuf, n int) Vec {
	switch {
	case v.Vals != nil:
		out := buf.Values(n)
		copy(out, v.Vals)
		return Vec{Vals: out}
	case v.Kind == KindInt:
		out, ws := buf.Ints(n)
		copy(out, v.Ints)
		copy(ws, v.Widths)
		return Vec{Kind: KindInt, Ints: out, Widths: ws}
	case v.Kind == KindFloat:
		out, ws := buf.Floats(n)
		copy(out, v.Floats)
		copy(ws, v.Widths)
		return Vec{Kind: KindFloat, Floats: out, Widths: ws}
	}
	out := buf.Strs(n)
	copy(out, v.Strs)
	return Vec{Kind: KindString, Strs: out}
}

// Rows returns the rows of every collector in order, in exactly sized
// headers (nil for none) — source rows by reference, and the rest cut from
// one new slab of cells — and releases the collectors.
func Rows(cs ...*Collector) []Row {
	total, cells, arity := 0, 0, 0
	for _, c := range cs {
		for _, ch := range c.list() {
			total += ch.n
			if ch.src == nil {
				arity = len(ch.set.store().cols)
				cells += ch.n
			}
		}
	}
	var rows []Row
	if total > 0 {
		rows = make([]Row, 0, total)
	}
	slab := make([]Value, cells*arity)
	for _, c := range cs {
		for i := range c.list() {
			ch := &c.list()[i]
			if ch.src != nil {
				rows = append(rows, ch.src...)
				continue
			}
			at := len(rows)
			rows = cutRows(rows, slab, ch.n, arity)
			slab = slab[ch.n*arity:]
			for k, col := range ch.set.store().cols {
				fillColumn(rows[at:], k, &col)
			}
		}
		c.Release()
	}
	return rows
}

func (c *Collector) list() []chunk {
	if c.chunks == nil {
		return nil
	}
	return *c.chunks
}

// Release hands every chunk's store and the chunk list back and empties the
// collector.
func (c *Collector) Release() {
	if c.chunks != nil {
		for i := range *c.chunks {
			(*c.chunks)[i].set.Release()
		}
		clear(*c.chunks)
		*c.chunks = (*c.chunks)[:0]
		chunkLists.Put(c.chunks)
		c.chunks = nil
	}
}
