package relation

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
)

// columnarMagic opens every stream the DFS stores, in the one format it
// stores: a Writer writes it and Encoded reads it. The leading byte is an
// invalid UTF-8 start byte, so no TSV stream (which begins "#schema") can
// collide with it, and DecodeBytes tells the two apart by it.
//
//	magic (5 bytes), then the two header lines of the TSV format
//	per row group: uvarint rows (1..groupRows), uvarint bodyLen, body
//	body, per column: uvarint sectionLen, section
//	  int     a zigzag varint per row
//	  float   per row, 8 bytes of little-endian IEEE-754 bits and 1 byte:
//	          the length of the value's text (0: not known, measure it)
//	  string  uvarint blobLen, the rows' bytes end to end, then a uvarint
//	          length per row; the decoded cells are substrings of one blob
//	a body of no columns is one zero byte per row
//
// Every row costs its group at least a byte, so a declared row count is
// checked against the bytes present before anything is sized by it. The width
// byte keeps the format invisible above this package: a cell read back from a
// Writer's stream carries the cached width of its text, so sizes, meters and
// traces are those of the rows' text. Values are coerced to their column's
// declared kind, as parsing their text would. A string holding a tab or a
// newline is stored exactly, though the TSV a user reads has no escape for it.
var columnarMagic = [5]byte{0xb1, 'M', 'K', 'C', '2'}

// groupRows bounds a row group: the unit a reader skips, stitches across
// blocks or decodes in place.
const groupRows = 1024

// Writer is the one relation writer, the mirror of Encoded: it renders rows
// as row groups as they arrive and keeps none, so a pipeline may stream
// batches into it. BodyBytes is Σ Row.EncodedLen, the length of the rows'
// text, which is how a streamed output is sized. LogicalBytes may be set until
// Bytes or Segments, Schema until the first row. Parts splice in the order they were
// opened; each may be filled by its own goroutine, done before any read.
type Writer struct {
	Schema       Schema
	LogicalBytes int64
	parts        []*Part
}

// NewColumnarWriter returns an empty writer for rows of the given schema.
func NewColumnarWriter(schema Schema) *Writer { return &Writer{Schema: schema} }

// Part opens the next stretch of the body; nil on a nil writer.
func (w *Writer) Part() *Part {
	if w == nil {
		return nil
	}
	w.parts = append(w.parts, &Part{w: w})
	return w.parts[len(w.parts)-1]
}

// Append renders rows after everything written so far.
func (w *Writer) Append(rows []Row) { w.Part().Append(rows) }

// Rows returns the number of rows written.
func (w *Writer) Rows() (n int) {
	for _, p := range w.parts {
		n += p.rows
	}
	return n
}

// BodyBytes returns the length of their text: PhysicalBytes of the same rows.
func (w *Writer) BodyBytes() (n int64) {
	for _, p := range w.parts {
		n += int64(p.bytes)
	}
	return n
}

// TextBytes returns the length of the stream's TSV rendering, header and
// body, computed and not rendered: the canonical size of the file.
func (w *Writer) TextBytes() int64 {
	return int64(headerLen(w.Schema, w.LogicalBytes)) + w.BodyBytes()
}

// Bytes assembles magic, header and parts into one exactly sized, fresh
// buffer.
func (w *Writer) Bytes() []byte {
	n := 0
	for _, p := range w.parts {
		for _, seg := range p.segs {
			n += len(seg)
		}
	}
	buf := w.head(n)
	for _, p := range w.parts {
		for _, seg := range p.segs {
			buf = append(buf, seg...)
		}
	}
	return buf
}

// Segments returns the stream as the pieces it was written in, in order:
// magic and header in one fresh buffer, then every row group's segment —
// the writer's own, not copied, and never written again.
func (w *Writer) Segments() [][]byte {
	n := 1
	for _, p := range w.parts {
		n += len(p.segs)
	}
	segs := append(make([][]byte, 0, n), w.head(0))
	for _, p := range w.parts {
		segs = append(segs, p.segs...)
	}
	return segs
}

// head returns magic and header in a buffer with room for body more bytes.
func (w *Writer) head(body int) []byte {
	n := len(columnarMagic) + headerLen(w.Schema, w.LogicalBytes)
	return appendHeader(append(make([]byte, 0, n+body), columnarMagic[:]...), w.Schema, w.LogicalBytes)
}

// Part is one stretch of a Writer's body: its row groups, each sized before it
// is written into a segment of exactly its length, and never re-copied.
type Part struct {
	w           *Writer
	segs        [][]byte
	rows, bytes int
	lens        []int     // appendGroup's scratch: per column, section and blob length
	memo        WidthMemo // appendGroup's, between Append calls in widthTables: the widths of floats no tap measured
}

// Append renders rows at the end of the part, a row group per groupRows of
// them, and retains none of them: each group's columns are transposed into
// vectors first.
func (p *Part) Append(rows []Row) {
	var set VecSet
	arity := p.w.Schema.Arity()
	for len(rows) > 0 {
		n := min(len(rows), groupRows)
		cols, bufs := set.Cols(arity), set.Bufs(arity)
		for c := range cols {
			cols[c] = bufs[c].Transpose(rows[:n], c)
		}
		p.appendGroup(cols, 0, n)
		rows = rows[n:]
	}
	set.Release()
	p.memo.Release()
}

// AppendBatch renders a batch's rows at the end of the part, a row group per
// groupRows of them.
func (p *Part) AppendBatch(b *Batch) {
	for lo := 0; lo < b.N; lo += groupRows {
		p.appendGroup(b.Cols, lo, min(b.N-lo, groupRows))
	}
	p.memo.Release()
}

// EncodeColumnar returns the relation as a columnar stream: the bytes of a
// Writer handed every row.
func (r *Relation) EncodeColumnar(CodecOptions) []byte {
	w := NewColumnarWriter(r.Schema)
	w.LogicalBytes = r.LogicalBytes
	w.Append(r.Rows)
	return w.Bytes()
}

// DecodeColumnar is DecodeBytes, which sniffs the format, under the name the
// columnar format is measured by; no decoder has a parallel path to select.
func DecodeColumnar(name string, data []byte, _ CodecOptions) (*Relation, error) {
	return DecodeBytes(name, data)
}

func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

func varintLen(i int64) int { return uvarintLen(uint64(i<<1) ^ uint64(i>>63)) }

// cellText is the text of a cell of a string column.
func cellText(v *Value) string {
	if v.Kind == KindString {
		return v.S
	}
	return v.String()
}

// floatColumnWidth returns the width byte of a cell of a float column and the
// length of its text. A float's byte is that length, cached or measured once,
// through m. An Int in a float column renders as integer text, which parses
// back to a float that re-renders the same up to six digits and in exponent
// form beyond: there the byte is 0 and the reader's TextLen measures the float
// it decoded. No kernel computes one (ARITH declares the kind it computes);
// what reaches this is a user's relation, built with an Int in a float column
// and handed to WriteRelation or EncodeColumnar, which store it as its text
// would parse.
func floatColumnWidth(v *Value, m *WidthMemo) (w uint8, text int) {
	switch {
	case v.Kind == KindInt:
		text = intTextLen(v.I)
		if v.I > 999999 || v.I < -999999 {
			return 0, text
		}
		return uint8(text), text
	case v.w != 0:
		return v.w, int(v.w)
	}
	text = v.measure(m)
	return uint8(text), text
}

// appendGroup renders rows [lo, lo+n) of cols, at most groupRows of them, as
// one row group at the end of the part, each cell coerced to its column's
// declared kind as parsing its text would. A first pass sizes every column's
// section, so the group is written once, into a segment of exactly its length.
func (p *Part) appendGroup(cols []Vec, lo, n int) {
	schema := p.w.Schema.Cols
	arity := len(schema)
	if cap(p.lens) < 2*arity {
		p.lens = make([]int, 2*arity)
	}
	secLen, blobLen := p.lens[:arity], p.lens[arity:2*arity]
	hi := lo + n
	body := 0
	for c, col := range schema {
		v := &cols[c]
		size, blob := 0, 0
		switch col.Kind {
		case KindInt:
			if v.Is(KindInt) {
				for _, x := range v.Ints[lo:hi] {
					size += varintLen(x)
				}
			} else {
				for i := lo; i < hi; i++ {
					x, _ := v.intCell(i)
					size += varintLen(x)
				}
			}
		case KindFloat:
			size = 9 * n
		default:
			for i := lo; i < hi; i++ {
				l := len(v.text(i))
				blob += l
				size += uvarintLen(uint64(l))
			}
			size += uvarintLen(uint64(blob)) + blob
		}
		secLen[c], blobLen[c] = size, blob
		body += uvarintLen(uint64(size)) + size
	}
	if arity == 0 {
		body = n
	}
	seg := make([]byte, 0, uvarintLen(uint64(n))+uvarintLen(uint64(body))+body)
	seg = binary.AppendUvarint(binary.AppendUvarint(seg, uint64(n)), uint64(body))
	text := n * max(arity, 1) // a separator or newline per field, as the rows' TSV has them
	for c, col := range schema {
		v := &cols[c]
		seg = binary.AppendUvarint(seg, uint64(secLen[c]))
		switch col.Kind {
		case KindInt:
			for i := lo; i < hi; i++ {
				x, t := v.intCell(i)
				seg = binary.AppendVarint(seg, x)
				text += t
			}
		case KindFloat:
			for i := lo; i < hi; i++ {
				f, w, t := v.floatCell(i, &p.memo)
				seg = append(binary.LittleEndian.AppendUint64(seg, math.Float64bits(f)), w)
				text += t
			}
		default:
			seg = binary.AppendUvarint(seg, uint64(blobLen[c]))
			for i := lo; i < hi; i++ {
				seg = append(seg, v.text(i)...)
			}
			for i := lo; i < hi; i++ {
				seg = binary.AppendUvarint(seg, uint64(len(v.text(i))))
			}
			text += blobLen[c]
		}
	}
	if arity == 0 {
		seg = append(seg, make([]byte, n)...)
	}
	p.segs, p.rows, p.bytes = append(p.segs, seg), p.rows+n, p.bytes+text
}

// intCell returns cell i as an int column stores it, as parsing its text
// would — a string that is no int's text as 0, a float truncated — and the
// length of its text.
func (v *Vec) intCell(i int) (x int64, text int) {
	if v.Is(KindInt) {
		x = v.Ints[i]
		if w := v.Widths[i]; w != 0 {
			return x, int(w)
		}
		return x, intTextLen(x)
	}
	cell := v.Cell(i)
	if cell.Kind == KindString {
		x, _ = strconv.ParseInt(cell.S, 10, 64)
		return x, len(cell.S)
	}
	x = cell.AsInt()
	return x, intTextLen(x)
}

// floatCell returns cell i as a float column stores it, as parsing its text
// would — a string that is no number's text as 0 — with its width byte and
// the length of its text (floatColumnWidth). A string's byte is its length
// when the float renders back to it, else 0: the reader measures the float.
func (v *Vec) floatCell(i int, m *WidthMemo) (f float64, w uint8, text int) {
	if v.Is(KindFloat) && v.Widths[i] != 0 {
		return v.Floats[i], v.Widths[i], int(v.Widths[i])
	}
	cell := v.Cell(i)
	if cell.Kind == KindString {
		f, _ = strconv.ParseFloat(cell.S, 64)
		if n := floatWidth(f); n == len(cell.S) && string(appendFloat(nil, f)) == cell.S {
			w = uint8(n)
		}
		return f, w, len(cell.S)
	}
	w, text = floatColumnWidth(&cell, m)
	return cell.AsFloat(), w, text
}

// text is the text of cell i in a string column.
func (v *Vec) text(i int) string {
	if v.Is(KindString) {
		return v.Strs[i]
	}
	cell := v.Cell(i)
	return cellText(&cell)
}

// Encoded is a stored relation that has been opened — magic checked, header
// parsed — with no row decoded yet: a consumer pulls it through Reader, batch
// by batch over a row range, or drains it once with Materialize; both run
// groupReader, the one decoder of the stored format. The stream is held as the
// blocks it was stored in, so a row group may straddle any number of them.
// Readers over disjoint ranges may run concurrently, and a scan of every range
// may be repeated once the last has finished; everything else is for the
// owner, before they start or after they finish.
type Encoded struct {
	Name         string
	Schema       Schema
	LogicalBytes int64

	// trusted says a Writer wrote the stream and rows is what it recorded: a
	// number's width is cached as the stream gives it, readers meter what they
	// decode, and any other row count is an error. A foreign stream's rows is
	// the sum its row groups declare.
	trusted bool
	rows    int
	size    int          // bytes in the stream: no length it declares may pass it
	body    blockCursor  // at the first row group
	rel     *Relation    // decoded rows, once Materialize has run
	phys    atomic.Int64 // the meter: Σ Row.EncodedLen over the rows of one scan
	metered atomic.Int64 // rows decoded over every scan so far
}

// Open opens the columnar stream stored in blocks — a Writer's, cut anywhere —
// that was recorded as holding rows rows: trusted as the writer's own, any
// other row count is an error. A stream that is not columnar is refused.
func Open(name string, blocks [][]byte, rows int) (*Encoded, error) {
	return open(name, blocks, rows, true)
}

func open(name string, blocks [][]byte, rows int, trusted bool) (*Encoded, error) {
	e := &Encoded{Name: name, rows: rows, trusted: trusted, body: blockCursor{blocks: blocks}}
	for _, b := range blocks {
		e.size += len(b)
	}
	if magic, ok := e.body.take(len(columnarMagic)); !ok || [5]byte(magic) != columnarMagic {
		return nil, fmt.Errorf("relation %s: not a columnar stream", name)
	}
	var err error
	if e.Schema, e.LogicalBytes, err = readHeader(name, &e.body); err != nil {
		return nil, err
	}
	e.body.release() // it held header lines; every reader takes its own
	if !trusted {
		if err := e.countGroupRows(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// NumRows returns the number of rows the writer recorded.
func (e *Encoded) NumRows() int { return e.rows }

// Reader returns a source over rows [lo, hi) that decodes at most batchRows
// rows per batch into vectors it recycles, handed back once the range is
// drained. The range starts at a row found by counting what the row groups
// before it declare, so concurrent readers over adjoining ranges decode
// exactly the rows a single one would, in order. Once Materialize has run,
// it reads the decoded relation: with src, its batches carry those rows
// (Relation.Reader).
func (e *Encoded) Reader(lo, hi, batchRows int, src bool) RowSource {
	if e.rel != nil {
		return e.rel.Reader(lo, hi, batchRows, src)
	}
	return &groupReader{e: e, cur: e.body, remaining: hi - lo, last: hi == e.rows, batchRows: batchRows, skip: lo}
}

// Materialize decodes every row, once, into the relation's exactly sized rows
// and slab, a row group's worth of vectors at a time; later calls return the
// same relation.
func (e *Encoded) Materialize() (*Relation, error) {
	if e.rel == nil {
		r := groupReader{e: e, cur: e.body, remaining: e.rows, last: true, batchRows: groupRows}
		arity := e.Schema.Arity()
		rows := cutRows(make([]Row, 0, e.rows), make([]Value, e.rows*arity), e.rows, arity)
		var err error
		for at, b := 0, (Batch{}); err == nil; at += b.N {
			if b, err = r.Next(); err == nil && b.Empty() {
				break
			}
			for c := range b.Cols {
				fillColumn(rows[at:at+b.N], c, &b.Cols[c])
			}
		}
		r.set.Release()
		r.cur.release()
		if err != nil {
			return nil, err
		}
		e.rel = &Relation{Name: e.Name, Schema: e.Schema, Rows: rows, LogicalBytes: e.LogicalBytes}
	}
	return e.rel, nil
}

// PhysicalBytes is Relation.PhysicalBytes once every row has been decoded,
// through readers or Materialize: the meter's sum, no second walk.
func (e *Encoded) PhysicalBytes() int64 { return e.phys.Load() }

// meter adds a drained range's rows and bytes to the meter while it holds
// less than one scan: the ranges of a scan decode every row once, so however
// many scans decode the file — one after another, or at once, as the halves
// of a UNION of the file with itself do — it is metered once.
func (e *Encoded) meter(rows int, phys int64) {
	if e.metered.Add(int64(rows)) <= int64(e.rows) {
		e.phys.Add(phys)
	}
}

// blockCursor walks a stream stored as blocks: its header line by line, its
// row groups by counted stretches of bytes.
type blockCursor struct {
	blocks [][]byte
	b, off int     // the next unread byte is blocks[b][off]
	carry  []byte  // stitches a line or a stretch that straddles blocks
	box    *[]byte // carry's buffer, from carryBufs until release
}

// carryBufs backs every cursor's carry.
var carryBufs Pool[byte]

// stitch appends b to carry, which takes a buffer with room for n bytes from
// carryBufs the first time anything straddles.
func (c *blockCursor) stitch(b []byte, n int) {
	if c.box == nil {
		c.box = carryBufs.Get(n)
		c.carry = (*c.box)[:0]
	}
	c.carry = append(c.carry, b...)
}

// release hands carry's buffer back — as it has grown — once nothing the
// cursor returned is read again: a reader does at its range's end or on an
// error.
func (c *blockCursor) release() {
	if c.box != nil {
		*c.box = c.carry[:0]
		carryBufs.Put(c.box)
	}
	c.box, c.carry = nil, nil
}

// next returns the next line without its newline, valid until the following
// call, and false at the end (an unterminated last line counts).
func (c *blockCursor) next() ([]byte, bool) {
	c.carry = c.carry[:0]
	for ; c.b < len(c.blocks); c.b, c.off = c.b+1, 0 {
		rest := c.blocks[c.b][c.off:]
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			c.stitch(rest, 2*len(rest))
			continue
		}
		c.off += i + 1
		if len(c.carry) == 0 {
			return rest[:i], true
		}
		c.stitch(rest[:i], 0)
		return c.carry, true
	}
	return c.carry, len(c.carry) > 0
}

// take returns the next n bytes, valid until the following call — in place
// when one block holds them, stitched through carry when they straddle — and
// false when the stream ends first.
func (c *blockCursor) take(n int) ([]byte, bool) {
	c.carry = c.carry[:0]
	for ; n > 0 && c.b < len(c.blocks); c.b, c.off = c.b+1, 0 {
		rest := c.blocks[c.b][c.off:]
		if len(c.carry) == 0 && len(rest) >= n {
			c.off += n
			return rest[:n:n], true
		}
		k := min(n-len(c.carry), len(rest))
		c.stitch(rest[:k], n)
		if len(c.carry) == n {
			c.off += k
			return c.carry, true
		}
	}
	return nil, n == 0
}

// skip moves the cursor past the next n bytes; false when the stream ends
// first.
func (c *blockCursor) skip(n int) bool {
	for ; n > 0 && c.b < len(c.blocks); c.b, c.off = c.b+1, 0 {
		rest := len(c.blocks[c.b]) - c.off
		if rest >= n {
			c.off += n
			return true
		}
		n -= rest
	}
	return n == 0
}

// atEnd reports whether no byte is left.
func (c *blockCursor) atEnd() bool {
	for ; c.b < len(c.blocks) && c.off == len(c.blocks[c.b]); c.b, c.off = c.b+1, 0 {
	}
	return c.b == len(c.blocks)
}

// uvarint reads one unsigned varint, byte by byte: it may straddle blocks.
func (c *blockCursor) uvarint() (v uint64, ok bool) {
	for shift := 0; shift < 64; shift += 7 {
		b, ok := c.take(1)
		if !ok {
			return 0, false
		}
		v |= uint64(b[0]&0x7f) << shift
		if b[0] < 0x80 {
			return v, true
		}
	}
	return 0, false
}

// countGroupRows derives a foreign columnar stream's row count: the sum its
// groups declare, each checked against the bytes it holds.
func (e *Encoded) countGroupRows() error {
	e.rows = 0
	cur := e.body
	defer cur.release()
	for {
		n, body, err := e.groupHeader(&cur)
		if n == 0 || err != nil {
			return err
		}
		if !cur.skip(body) {
			return e.badGroup()
		}
		e.rows += n
	}
}

func (e *Encoded) badGroup() error {
	return fmt.Errorf("relation %s: malformed or truncated row group", e.Name)
}

// groupHeader reads the header of the row group at c: its row count — 0 at
// the end of the stream — and the length of its body, which must be one the
// stream can hold and hold at least a byte per cell (per row, for no columns).
func (e *Encoded) groupHeader(c *blockCursor) (rows, body int, err error) {
	if c.atEnd() {
		return 0, 0, nil
	}
	n, ok := c.uvarint()
	b, ok2 := c.uvarint()
	if !ok || !ok2 || n == 0 || n > groupRows || b > uint64(e.size) || n*uint64(max(e.Schema.Arity(), 1)) > b {
		return 0, 0, e.badGroup()
	}
	return int(n), int(b), nil
}

// groupReader decodes one row range of an Encoded's row groups: it hops over
// the groups before the range by their headers, decodes a group that sits in
// one block in place and one that straddles blocks from the cursor's carry,
// and fills every batch to its size across group boundaries, so batches are
// cut where the range's row count and batchRows say, not where groups end.
// Each row-group section decodes straight into its column's vector.
type groupReader struct {
	e         *Encoded
	cur       blockCursor
	remaining int   // rows of the range not yet decoded
	done      int   // rows of the range decoded so far, and
	phys      int64 // their bytes: the meter takes both once it is drained
	last      bool  // the range ends at the relation's last row
	batchRows int
	skip      int         // rows before the range not yet passed
	left      int         // rows of the open group not yet decoded
	cols      []colCursor // the open group's sections
	set       VecSet      // the batch's columns and their buffers
}

func (r *groupReader) Schema() Schema { return r.e.Schema }

// colCursor is what is left of one column's section of the open group: the
// undecoded varints, floats or string lengths, and for strings the part of
// the blob no decoded cell has taken.
type colCursor struct {
	sec  []byte
	blob string
}

// Next decodes the range's next batch into the vectors, which it releases
// once the range is drained. A trusted batch carries the widths the encoding
// does, and its columns' text sums, and is metered from them — nothing is
// rendered — and a trusted stream must end where its last row does.
func (r *groupReader) Next() (Batch, error) {
	n := min(r.batchRows, r.remaining)
	if n == 0 {
		r.set.Release()
		_, err := r.fill(0) // a trusted stream must end here
		r.cur.release()
		return Batch{}, err
	}
	cols, err := r.fill(n)
	if err != nil {
		r.cur.release()
		return Batch{}, err
	}
	return Batch{N: n, Cols: cols}, nil
}

// fill decodes the range's next n rows into vectors, and for a trusted
// stream sums each column's text widths as it goes.
func (r *groupReader) fill(n int) ([]Vec, error) {
	e := r.e
	var cols []Vec
	if n > 0 {
		arity := e.Schema.Arity()
		cols = r.set.Cols(arity)
		bufs := r.set.Bufs(arity)
		for c, col := range e.Schema.Cols {
			switch col.Kind {
			case KindInt:
				is, ws := bufs[c].Ints(n)
				cols[c] = Vec{Kind: KindInt, Ints: is, Widths: ws}
			case KindFloat:
				fs, ws := bufs[c].Floats(n)
				cols[c] = Vec{Kind: KindFloat, Floats: fs, Widths: ws}
			default:
				cols[c] = Vec{Kind: KindString, Strs: bufs[c].Strs(n)}
			}
		}
	}
	for at := 0; at < n; {
		if r.left == 0 {
			if err := r.openGroup(); err != nil {
				return nil, err
			}
		}
		k, count := min(n-at, r.left), true
		if r.skip > 0 {
			// The range starts inside this group: the rows before it decode
			// over the batch's storage, uncounted, and are overwritten.
			k, count = min(k, r.skip), false
		}
		if err := r.decode(cols, at, k, count); err != nil {
			return nil, err
		}
		if r.skip > 0 {
			r.skip -= k
		} else {
			at += k
		}
	}
	r.remaining -= n
	if !e.trusted {
		for c := range cols {
			cols[c].sum = 0 // a foreign stream's floats are not measured
		}
		return cols, nil
	}
	phys := int64(n * e.Schema.Arity())
	for c := range cols {
		phys += cols[c].sum
		cols[c].sum++
	}
	r.done, r.phys = r.done+n, r.phys+phys
	if r.remaining == 0 && n > 0 {
		e.meter(r.done, r.phys)
	}
	if r.remaining == 0 && r.last && r.skip == 0 && (r.left > 0 || !r.cur.atEnd()) {
		return nil, fmt.Errorf("relation %s: stream continues past the %d rows its writer recorded", e.Name, e.rows)
	}
	return cols, nil
}

// openGroup moves to the next row group holding a row of the range, skipping
// whole the ones before it, and splits its body into column sections.
func (r *groupReader) openGroup() error {
	e := r.e
	for {
		n, size, err := e.groupHeader(&r.cur)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("relation %s: stream ends short of the %d rows its writer recorded", e.Name, e.rows)
		}
		if r.skip >= n {
			if !r.cur.skip(size) {
				return e.badGroup()
			}
			r.skip -= n
			continue
		}
		body, ok := r.cur.take(size)
		if !ok {
			return e.badGroup()
		}
		if r.cols == nil {
			r.cols = make([]colCursor, e.Schema.Arity())
		}
		for c, col := range e.Schema.Cols {
			slen, k := binary.Uvarint(body)
			if k <= 0 || slen > uint64(len(body)-k) {
				return e.badGroup()
			}
			sec := body[k : k+int(slen)]
			body = body[k+int(slen):]
			cc := &r.cols[c]
			*cc = colCursor{sec: sec}
			switch col.Kind {
			case KindFloat:
				if len(sec) != 9*n {
					return e.badGroup()
				}
			case KindString:
				blen, k := binary.Uvarint(sec)
				if k <= 0 || blen > uint64(len(sec)-k) {
					return e.badGroup()
				}
				cc.blob, cc.sec = string(sec[k:k+int(blen)]), sec[k+int(blen):]
			}
		}
		if len(e.Schema.Cols) == 0 {
			body = body[n:]
		}
		if len(body) != 0 {
			return e.badGroup()
		}
		r.left = n
		return nil
	}
}

// decode decodes the open group's next k rows into cols from row at on,
// column by column, adding each column's text widths to its sum when count
// says the rows are the range's. A foreign stream's width bytes are not taken
// on its word: its floats are left unmeasured. Once the group's last row is
// out, every section must be too.
func (r *groupReader) decode(cols []Vec, at, k int, count bool) error {
	e := r.e
	stamp := uint8(0)
	if e.trusted {
		stamp = 0xff
	}
	for c, col := range e.Schema.Cols {
		cc, v := &r.cols[c], &cols[c]
		t := 0
		switch col.Kind {
		case KindInt:
			sec := cc.sec
			dst, ws := v.Ints[at:at+k], v.Widths[at:at+k]
			for i := range dst {
				x, n := binary.Varint(sec)
				if n <= 0 {
					return e.badGroup()
				}
				sec = sec[n:]
				w := intTextLen(x)
				dst[i], ws[i] = x, uint8(w)
				t += w
			}
			cc.sec = sec
		case KindFloat:
			sec := cc.sec[:9*k]
			fs, ws := v.Floats[at:at+k], v.Widths[at:at+k]
			for i := range fs {
				f := math.Float64frombits(binary.LittleEndian.Uint64(sec[9*i:]))
				w := sec[9*i+8] & stamp
				if w == 0 && e.trusted {
					w = uint8(floatWidth(f))
				}
				fs[i], ws[i] = f, w
				t += int(w)
			}
			cc.sec = cc.sec[9*k:]
		default:
			sec, blob := cc.sec, cc.blob
			dst := v.Strs[at : at+k]
			for i := range dst {
				l, n := binary.Uvarint(sec)
				if n <= 0 || l > uint64(len(blob)) {
					return e.badGroup()
				}
				dst[i] = blob[:l]
				sec, blob = sec[n:], blob[l:]
			}
			t = len(cc.blob) - len(blob)
			cc.sec, cc.blob = sec, blob
		}
		if count {
			v.sum += int64(t)
		}
	}
	if r.left -= k; r.left == 0 {
		for _, cc := range r.cols {
			if len(cc.sec) != 0 || len(cc.blob) != 0 {
				return e.badGroup()
			}
		}
	}
	return nil
}
