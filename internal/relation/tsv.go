package relation

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Encoded is an encoded relation that has been opened — codec sniffed, header
// parsed — with no row decoded yet: a consumer pulls it through Reader, batch
// by batch over a row range, or drains it once with Materialize; both run
// tsvReader, the only TSV row parser, or groupReader, the only columnar
// decoder. The stream is held as the blocks it was stored in, so a line or a
// row group may straddle any number of them. Readers over disjoint ranges may
// run concurrently, and a scan of every range may be repeated once the last
// has finished; everything else is for the owner, before they start or after
// they finish.
type Encoded struct {
	Name         string
	Schema       Schema
	LogicalBytes int64

	// trusted says a Writer wrote the stream and rows is what it recorded: a
	// numeric cell's width is what the encoding says (see stampEncoded),
	// readers meter what they decode, and any other row count is an error. A
	// foreign stream's rows is derived from it: the line count, an upper
	// bound (text may hold blank lines), or the sum its row groups declare.
	trusted  bool
	columnar bool
	rows     int
	size     int          // bytes in the stream: no length it declares may pass it
	blankRow bool         // an empty line is a row: one string column, or none
	body     blockCursor  // at the first row line, or the first row group
	rel      *Relation    // decoded rows, once Materialize has run
	phys     atomic.Int64 // the meter: Σ Row.EncodedLen over the rows of one scan
	metered  atomic.Int64 // rows decoded over every scan so far
}

// Open opens the encoded relation stored in blocks — a Writer's stream in
// either codec, cut anywhere — that was recorded as holding rows rows:
// trusted as the writer's own, any other row count is an error.
func Open(name string, blocks [][]byte, rows int) (*Encoded, error) {
	return open(name, blocks, rows, true)
}

func open(name string, blocks [][]byte, rows int, trusted bool) (*Encoded, error) {
	e := &Encoded{Name: name, rows: rows, trusted: trusted, body: blockCursor{blocks: blocks}}
	lines := 1
	for _, b := range blocks {
		if e.size == 0 && len(b) > 0 && b[0] == columnarMagic[0] {
			e.columnar = true
		}
		e.size += len(b)
		if !trusted && !e.columnar {
			lines += bytes.Count(b, []byte{'\n'})
		}
	}
	if !trusted {
		e.rows = lines
	}
	if e.columnar {
		if magic, ok := e.body.take(len(columnarMagic)); !ok || [5]byte(magic) != columnarMagic {
			return nil, fmt.Errorf("relation %s: bad columnar magic", name)
		}
	}
	head, ok := e.body.next()
	if !ok {
		return nil, fmt.Errorf("relation %s: empty stream", name)
	}
	header := strings.Split(string(head), "\t")
	if header[0] != "#schema" {
		return nil, fmt.Errorf("relation %s: missing #schema header", name)
	}
	for _, spec := range header[1:] {
		colName, kindStr, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("relation %s: bad column spec %q", name, spec)
		}
		kind, err := ParseKind(kindStr)
		if err != nil {
			return nil, err
		}
		e.Schema.Cols = append(e.Schema.Cols, Column{Name: colName, Kind: kind})
	}
	logLine, ok := e.body.next()
	if !ok {
		return nil, fmt.Errorf("relation %s: missing #logical header", name)
	}
	logField, found := strings.CutPrefix(string(logLine), "#logical\t")
	logical, err := strconv.ParseInt(logField, 10, 64)
	if !found || err != nil {
		return nil, fmt.Errorf("relation %s: bad #logical header %q", name, string(logLine))
	}
	e.LogicalBytes = logical
	e.body.carry = nil // it held header lines; every reader grows its own
	arity := e.Schema.Arity()
	e.blankRow = arity == 0 || arity == 1 && e.Schema.Cols[0].Kind == KindString
	if e.columnar && !trusted {
		if err := e.countGroupRows(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// NumRows returns the number of rows the writer recorded.
func (e *Encoded) NumRows() int { return e.rows }

// Reader returns a source over rows [lo, hi) that decodes at most batchRows
// rows per batch into an arena it reuses — or, with fresh, allocates anew per
// batch, for a consumer that keeps rows past the next pull. The range starts
// at a line found by counting newlines, or at a row found by counting what the
// row groups before it declare, so concurrent readers over adjoining ranges
// decode exactly the rows a single one would, in order.
func (e *Encoded) Reader(lo, hi, batchRows int, fresh bool) RowSource {
	if e.rel != nil {
		return e.rel.Reader(lo, hi, batchRows)
	}
	rr := rangeReader{e: e, cur: e.body, remaining: hi - lo, last: hi == e.rows, batchRows: batchRows, fresh: fresh}
	if e.columnar {
		return &groupReader{rangeReader: rr, skip: lo}
	}
	rr.cur.skipLines(lo)
	return &tsvReader{rr}
}

// Materialize decodes every row, once, as one fresh batch whose arena is the
// relation's exactly-sized slab; later calls return the same relation.
func (e *Encoded) Materialize() (*Relation, error) {
	if e.rel == nil {
		b, err := e.Reader(0, e.rows, e.rows, true).Next()
		if err != nil {
			return nil, err
		}
		e.rel = &Relation{Name: e.Name, Schema: e.Schema, Rows: b.Rows, LogicalBytes: e.LogicalBytes}
	}
	return e.rel, nil
}

// PhysicalBytes is Relation.PhysicalBytes once every row has been decoded,
// through readers or Materialize: the meter's sum, no second walk.
func (e *Encoded) PhysicalBytes() int64 { return e.phys.Load() }

// meter adds a batch of rows and their bytes to the meter while it holds less
// than one scan: the ranges of a scan decode every row once, so however many
// scans decode the file, it is metered once.
func (e *Encoded) meter(rows int, phys int64) {
	if e.metered.Add(int64(rows)) <= int64(e.rows) {
		e.phys.Add(phys)
	}
}

// blockCursor walks a stream stored as blocks: line by line, or by counted
// stretches of bytes.
type blockCursor struct {
	blocks [][]byte
	b, off int    // the next unread byte is blocks[b][off]
	carry  []byte // stitches a line or a stretch that straddles blocks
}

// next returns the next line without its newline, valid until the following
// call, and false at the end (an unterminated last line counts).
func (c *blockCursor) next() ([]byte, bool) {
	c.carry = c.carry[:0]
	for ; c.b < len(c.blocks); c.b, c.off = c.b+1, 0 {
		rest := c.blocks[c.b][c.off:]
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			c.carry = append(c.carry, rest...)
			continue
		}
		c.off += i + 1
		if len(c.carry) == 0 {
			return rest[:i], true
		}
		c.carry = append(c.carry, rest[:i]...)
		return c.carry, true
	}
	return c.carry, len(c.carry) > 0
}

// skipLines moves the cursor past the next n lines.
func (c *blockCursor) skipLines(n int) {
	for ; n > 0 && c.b < len(c.blocks); c.b, c.off = c.b+1, 0 {
		if k := bytes.Count(c.blocks[c.b][c.off:], []byte{'\n'}); k < n {
			n -= k
			continue
		}
		for ; n > 0; n-- {
			c.off += bytes.IndexByte(c.blocks[c.b][c.off:], '\n') + 1
		}
		return
	}
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
		c.carry = append(c.carry, rest[:k]...)
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

// rangeReader is what the two codecs' readers of one row range share.
type rangeReader struct {
	e         *Encoded
	cur       blockCursor
	remaining int  // rows of the range not yet decoded
	last      bool // the range ends at the relation's last row
	batchRows int
	fresh     bool
	rows      []Row
	vals      []Value
}

func (r *rangeReader) Schema() Schema { return r.e.Schema }

// tsvReader decodes one row range of an Encoded's TSV lines.
type tsvReader struct{ rangeReader }

// Next decodes the range's next batch: fewer rows than asked only where
// foreign text ends. Trusted rows are metered, and trusted text must end
// where its last row does.
func (r *tsvReader) Next() (Batch, error) {
	e := r.e
	arity := e.Schema.Arity()
	// A range's first batch is its largest: the arena is allocated once, at
	// min(batchRows, rows in the range) rows, never a full default batch.
	n := min(r.batchRows, r.remaining)
	if r.fresh || cap(r.vals) < n*arity {
		r.vals = make([]Value, n*arity)
	}
	if cap(r.rows) < n {
		r.rows = make([]Row, n)
	}
	rows, vals := r.rows[:0], r.vals
	var phys int64
	for len(rows) < n {
		line, ok := r.cur.next()
		if !ok {
			if e.trusted {
				return Batch{}, fmt.Errorf("relation %s: text ends %d rows short of the %d its writer recorded", e.Name, r.remaining-len(rows), e.rows)
			}
			r.remaining = len(rows)
			break
		}
		// Foreign text may carry blank lines. In the encoder's every line is
		// a row: an empty one fails to parse unless the schema admits it.
		if len(line) == 0 && !e.blankRow && !e.trusted {
			continue
		}
		row := Row(vals[:arity:arity])
		vals = vals[arity:]
		if err := e.parseLine(line, row); err != nil {
			return Batch{}, err
		}
		if e.trusted {
			phys += row.EncodedLen()
		}
		rows = append(rows, row)
	}
	r.remaining -= len(rows)
	e.meter(len(rows), phys)
	if r.remaining == 0 && r.last && e.trusted {
		if _, more := r.cur.next(); more {
			return Batch{}, fmt.Errorf("relation %s: text continues past the %d rows its writer recorded", e.Name, e.rows)
		}
	}
	return Batch{Rows: rows}, nil
}

// parseLine parses one row line into row, whose length is the schema's
// arity. Numbers parse from the line's bytes; a string column costs the line
// one string, which its string cells share. A numeric cell is written field
// by field, with no pointer store: fresh from make or last written by this
// same column, what a number leaves unset (S, and I or F) is already zero.
func (e *Encoded) parseLine(line []byte, row Row) error {
	arity := len(row)
	if arity == 0 && len(line) == 0 {
		return nil
	}
	var text string
	rest := line
	for c := 0; ; c++ {
		field, tail, more := rest, []byte(nil), false
		if i := bytes.IndexByte(rest, '\t'); i >= 0 {
			field, tail, more = rest[:i], rest[i+1:], true
		}
		if c == arity {
			return fmt.Errorf("relation %s: row arity %d != %d", e.Name, c+1+bytes.Count(tail, []byte{'\t'}), arity)
		}
		cell := &row[c]
		if kind := e.Schema.Cols[c].Kind; kind == KindString {
			if text == "" {
				text = string(line)
			}
			at := len(line) - len(rest)
			*cell = Str(text[at : at+len(field)])
		} else {
			// What AppendInt and (below 1e21, mostly) AppendFloat write is
			// plain decimal; anything else takes strconv's word for it.
			mant, digits, frac, neg := scanDecimal(field)
			var err error
			if kind == KindInt {
				i := int64(mant)
				if neg {
					i = -i
				}
				if digits == 0 || frac >= 0 {
					i, err = strconv.ParseInt(string(field), 10, 64)
				}
				cell.Kind, cell.w, cell.I = KindInt, 0, i
			} else {
				// Up to 15 digits: an integer below 2^53 over a power of ten,
				// both exact, so the division rounds to the float strconv finds.
				f := float64(mant) / pow10[max(frac, 0)]
				if neg {
					f = -f
				}
				if digits == 0 || digits > 15 {
					f, err = strconv.ParseFloat(string(field), 64)
				}
				cell.Kind, cell.w, cell.F = KindFloat, 0, f
			}
			if err != nil {
				return fmt.Errorf("relation %s: parse %s %q: %w", e.Name, kind, field, err)
			}
			if e.trusted {
				cell.stampEncoded(field)
			}
		}
		if !more {
			if c+1 != arity {
				return fmt.Errorf("relation %s: row arity %d != %d", e.Name, c+1, arity)
			}
			return nil
		}
		rest = tail
	}
}

var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// scanDecimal reads field as [-]digits[.digits]: the digits as one integer,
// how many there are (0 when field is not of that form or holds more than
// 18), how many follow the point (-1 without one), and the sign.
func scanDecimal(field []byte) (mant uint64, digits, frac int, neg bool) {
	frac = -1
	for i, c := range field {
		switch d := c - '0'; {
		case d <= 9 && digits < 18:
			mant = mant*10 + uint64(d)
			digits++
			if frac >= 0 {
				frac++
			}
		case c == '.' && frac < 0:
			frac = 0
		case c == '-' && i == 0:
			neg = true
		default:
			return 0, 0, 0, false
		}
	}
	return mant, digits, frac, neg
}

// Writer is the one relation writer, the mirror of Encoded: it renders rows
// as they arrive and keeps none, so a pipeline may stream batches into it. Its
// codec is fixed at construction — TSV, or the columnar row groups of
// columnar.go — and is invisible in its sizes: BodyBytes is Σ Row.EncodedLen,
// the length of the rows' text, whichever way they were rendered, which is how
// a streamed output is sized. LogicalBytes may be set until Bytes; Schema too
// for TSV, while a columnar writer needs it before its first row. Parts splice
// in the order they were opened; each may be filled by its own goroutine, done
// before any read.
type Writer struct {
	Schema       Schema
	LogicalBytes int64
	codec        Codec
	parts        []*Part
}

// NewWriter returns an empty TSV writer for rows of the given schema: the
// renderer behind EncodeBytes, of the text a user reads. What the DFS stores
// comes from NewColumnarWriter.
func NewWriter(schema Schema) *Writer { return &Writer{Schema: schema} }

// Codec returns the codec the writer renders in.
func (w *Writer) Codec() Codec { return w.codec }

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
// body, computed and not rendered: the canonical size of the file, whatever
// codec it is stored in.
func (w *Writer) TextBytes() int64 {
	n := len("#schema\n#logical\t\n") + intTextLen(w.LogicalBytes)
	for _, c := range w.Schema.Cols {
		n += len("\t:") + len(c.Name) + len(c.Kind.String())
	}
	return int64(n) + w.BodyBytes()
}

// Bytes assembles header and parts into one exactly sized, fresh buffer. The
// header is text in either codec; the magic before it says the body is not.
func (w *Writer) Bytes() []byte {
	var magic []byte
	if w.codec == CodecColumnar {
		magic = columnarMagic[:]
	}
	n := len(magic) + int(w.TextBytes()-w.BodyBytes())
	for _, p := range w.parts {
		for _, seg := range p.segs {
			n += len(seg)
		}
	}
	buf := append(append(make([]byte, 0, n), magic...), "#schema"...)
	for _, c := range w.Schema.Cols {
		buf = append(append(append(append(buf, '\t'), c.Name...), ':'), c.Kind.String()...)
	}
	buf = append(strconv.AppendInt(append(buf, "\n#logical\t"...), w.LogicalBytes, 10), '\n')
	for _, p := range w.parts {
		for _, seg := range p.segs {
			buf = append(buf, seg...)
		}
	}
	return buf
}

// Part is one stretch of a Writer's body. Its stream is a list of segments,
// never re-copied. Text grows by doubling: a new segment, as large as all
// before it (within bounds), is opened when the current one has no room for a
// row as long as the longest. A row group is sized before it is written, so
// it gets a segment of exactly its length.
type Part struct {
	w                   *Writer
	segs                [][]byte
	rows, bytes, widest int
	lens                []int     // appendGroup's scratch: per column, section and blob length
	memo                WidthMemo // appendGroup's: the widths of floats no tap stamped
}

const minSegment, maxSegment = 256, 64 << 10

// Append renders rows at the end of the part and retains none of them.
func (p *Part) Append(rows []Row) {
	if p.w.codec == CodecColumnar {
		for len(rows) > 0 {
			n := min(len(rows), groupRows)
			p.appendGroup(rows[:n])
			rows = rows[n:]
		}
		return
	}
	for _, row := range rows {
		k := len(p.segs) - 1
		if k < 0 || cap(p.segs[k])-len(p.segs[k]) < p.widest {
			p.segs = append(p.segs, make([]byte, 0, min(max(p.bytes, minSegment), maxSegment)))
			k++
		}
		seg := p.segs[k]
		for i := range row {
			if i > 0 {
				seg = append(seg, '\t')
			}
			seg = row[i].AppendText(seg)
		}
		seg = append(seg, '\n')
		n := len(seg) - len(p.segs[k])
		p.segs[k], p.bytes, p.widest = seg, p.bytes+n, max(p.widest, n)
	}
	p.rows += len(rows)
}

// sliceReader batches rows that are already decoded.
type sliceReader struct {
	sch       Schema
	rows      []Row
	batchRows int
}

func (s *sliceReader) Schema() Schema { return s.sch }

func (s *sliceReader) Next() (Batch, error) {
	n := min(s.batchRows, len(s.rows))
	b := Batch{Rows: s.rows[:n]}
	s.rows = s.rows[n:]
	return b, nil
}

// Reader returns a source over r.Rows[lo:hi] in batches of at most batchRows
// rows: views of the relation's own rows, which outlive the pull loop.
func (r *Relation) Reader(lo, hi, batchRows int) RowSource {
	return &sliceReader{sch: r.Schema, rows: r.Rows[lo:hi], batchRows: batchRows}
}
