package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Codec names one of the Writer's two stream formats.
type Codec uint8

const (
	// CodecTSV is the text format: a two-line header followed by
	// tab-separated rows. It is what users hand in (DecodeBytes) and read
	// (EncodeBytes): table files, uploads, served outputs, golden fixtures.
	CodecTSV Codec = iota
	// CodecColumnar is the binary format of every file the DFS stores —
	// staged sources, intermediates, sinks and loop state: a header followed
	// by row groups a reader decodes as it pulls them, with no number
	// rendered to text on the way out or parsed on the way in.
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
	// checked against the bytes present before anything is sized by it. The
	// width byte is what makes the codec invisible above this package: a
	// decoded cell carries the cached width a trusted TSV round trip would
	// have left in it (see stampEncoded), so sizes, meters and traces are the
	// same whichever codec a file crossed in. Values are coerced to their
	// column's declared kind, as parsing their text would. The one observable
	// difference is a string holding a tab or a newline: it survives this
	// codec exactly, where TSV splits it into fields or rows.
	CodecColumnar
)

// groupRows bounds a row group: the unit a reader skips, stitches across
// blocks or decodes in place.
const groupRows = 1024

// String returns the codec's lower-case name.
func (c Codec) String() string {
	if c == CodecColumnar {
		return "columnar"
	}
	return "tsv"
}

// columnarMagic prefixes every columnar stream. The leading byte is an
// invalid UTF-8 start byte, so no TSV stream (which begins "#schema") can
// collide with it.
var columnarMagic = [5]byte{0xb1, 'M', 'K', 'C', '2'}

// NewColumnarWriter returns an empty columnar writer for rows of the given
// schema, which must be set before the first row is appended.
func NewColumnarWriter(schema Schema) *Writer {
	return &Writer{Schema: schema, codec: CodecColumnar}
}

// EncodeColumnar returns the relation as a columnar stream: the bytes of a
// columnar Writer handed every row.
func (r *Relation) EncodeColumnar(CodecOptions) []byte {
	return r.encode(NewColumnarWriter(r.Schema))
}

// DecodeColumnar is DecodeBytes, which sniffs the codec, under the name the
// columnar codec is measured by; no decoder has a parallel path to select.
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
// length of the text a TSV writer would have rendered it to. A float's byte is
// that length, cached or measured once, through m. An Int in a float column (see
// stampEncoded) renders as integer text, which parses back to a float that
// re-renders the same up to six digits and in exponent form beyond: there the
// byte is 0 and the reader's TextLen measures the float it decoded.
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

// appendGroup renders rows, at most groupRows of them, as one row group at
// the end of the part. A first pass sizes every column's section, so the
// group is written once, into a segment of exactly its length.
func (p *Part) appendGroup(rows []Row) {
	cols := p.w.Schema.Cols
	arity := len(cols)
	if cap(p.lens) < 2*arity {
		p.lens = make([]int, 2*arity)
	}
	secLen, blobLen := p.lens[:arity], p.lens[arity:2*arity]
	body := 0
	for c, col := range cols {
		n, blob := 0, 0
		switch col.Kind {
		case KindInt:
			for _, row := range rows {
				n += varintLen(row[c].AsInt())
			}
		case KindFloat:
			n = 9 * len(rows)
		default:
			for _, row := range rows {
				l := len(cellText(&row[c]))
				blob += l
				n += uvarintLen(uint64(l))
			}
			n += uvarintLen(uint64(blob)) + blob
		}
		secLen[c], blobLen[c] = n, blob
		body += uvarintLen(uint64(n)) + n
	}
	if arity == 0 {
		body = len(rows)
	}
	seg := make([]byte, 0, uvarintLen(uint64(len(rows)))+uvarintLen(uint64(body))+body)
	seg = binary.AppendUvarint(binary.AppendUvarint(seg, uint64(len(rows))), uint64(body))
	text := len(rows) * max(arity, 1) // a separator or newline per field, as Part.Append writes them
	for c, col := range cols {
		seg = binary.AppendUvarint(seg, uint64(secLen[c]))
		switch col.Kind {
		case KindInt:
			for _, row := range rows {
				i := row[c].AsInt()
				seg = binary.AppendVarint(seg, i)
				text += intTextLen(i)
			}
		case KindFloat:
			for _, row := range rows {
				w, n := floatColumnWidth(&row[c], &p.memo)
				seg = append(binary.LittleEndian.AppendUint64(seg, math.Float64bits(row[c].AsFloat())), w)
				text += n
			}
		default:
			seg = binary.AppendUvarint(seg, uint64(blobLen[c]))
			for _, row := range rows {
				seg = append(seg, cellText(&row[c])...)
			}
			for _, row := range rows {
				seg = binary.AppendUvarint(seg, uint64(len(cellText(&row[c]))))
			}
			text += blobLen[c]
		}
	}
	if arity == 0 {
		seg = append(seg, make([]byte, len(rows))...)
	}
	p.segs, p.rows, p.bytes = append(p.segs, seg), p.rows+len(rows), p.bytes+text
}

// countGroupRows derives a foreign columnar stream's row count: the sum its
// groups declare, each checked against the bytes it holds.
func (e *Encoded) countGroupRows() error {
	e.rows = 0
	for cur := e.body; ; {
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
// cut exactly where tsvReader cuts them.
type groupReader struct {
	rangeReader
	skip int         // rows before the range not yet passed
	left int         // rows of the open group not yet decoded
	cols []colCursor // the open group's sections
}

// colCursor is what is left of one column's section of the open group: the
// undecoded varints, floats or string lengths, and for strings the part of
// the blob no decoded cell has taken.
type colCursor struct {
	sec  []byte
	blob string
}

// Next decodes the range's next batch straight into the arena: the range's
// first batch is its largest, so arena and row headers are built once unless
// the consumer asked for fresh storage per batch. Trusted rows are stamped
// with the widths the encoding carries and metered from them — nothing is
// rendered — and a trusted stream must end where its last row does.
func (r *groupReader) Next() (Batch, error) {
	e := r.e
	arity := e.Schema.Arity()
	n := min(r.batchRows, r.remaining)
	if r.fresh || cap(r.vals) < n*arity || cap(r.rows) < n {
		r.vals = make([]Value, n*arity)
		if cap(r.rows) < n {
			r.rows = make([]Row, n)
		}
		for i := range r.rows[:n] {
			r.rows[i] = r.vals[i*arity : (i+1)*arity : (i+1)*arity]
		}
	}
	phys := 0
	for at := 0; at < n; {
		if r.left == 0 {
			if err := r.openGroup(); err != nil {
				return Batch{}, err
			}
		}
		k, dst := min(n-at, r.left), r.vals[at*arity:]
		if r.skip > 0 {
			// The range starts inside this group: the rows before it decode
			// over the batch's storage, unmetered, and are overwritten.
			k = min(k, r.skip)
		}
		w, err := r.decode(dst, k)
		if err != nil {
			return Batch{}, err
		}
		if r.skip > 0 {
			r.skip -= k
		} else {
			at, phys = at+k, phys+w
		}
	}
	r.remaining -= n
	if e.trusted {
		e.meter(n, int64(phys))
		if r.remaining == 0 && r.last && r.skip == 0 && (r.left > 0 || !r.cur.atEnd()) {
			return Batch{}, fmt.Errorf("relation %s: stream continues past the %d rows its writer recorded", e.Name, e.rows)
		}
	}
	return Batch{Rows: r.rows[:n]}, nil
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

// decode decodes the open group's next k rows into dst, row-major, column by
// column, and returns Σ Row.EncodedLen over them. A numeric cell is written
// field by field, with no pointer store: fresh from make or last written by
// this same column, what a number leaves unset is already zero. Once the
// group's last row is out, every section must be too.
func (r *groupReader) decode(dst []Value, k int) (int, error) {
	e := r.e
	arity := len(e.Schema.Cols)
	stamp := uint8(0) // a foreign stream's widths are not taken on its word
	if e.trusted {
		stamp = 0xff
	}
	phys := k * arity
	for c, col := range e.Schema.Cols {
		cc := &r.cols[c]
		switch col.Kind {
		case KindInt:
			sec := cc.sec
			for i := c; i < k*arity; i += arity {
				v, n := binary.Varint(sec)
				if n <= 0 {
					return 0, e.badGroup()
				}
				sec = sec[n:]
				w := intTextLen(v)
				phys += w
				cell := &dst[i]
				cell.Kind, cell.w, cell.I = KindInt, uint8(w)&stamp, v
			}
			cc.sec = sec
		case KindFloat:
			sec := cc.sec[:9*k]
			for i := c; len(sec) > 0; i, sec = i+arity, sec[9:] {
				cell := &dst[i]
				cell.Kind, cell.w, cell.F = KindFloat, sec[8]&stamp, math.Float64frombits(binary.LittleEndian.Uint64(sec))
				if cell.w != 0 {
					phys += int(cell.w)
				} else if e.trusted {
					phys += cell.measure(nil)
				}
			}
			cc.sec = cc.sec[9*k:]
		default:
			sec, blob := cc.sec, cc.blob
			for i := c; i < k*arity; i += arity {
				l, n := binary.Uvarint(sec)
				if n <= 0 || l > uint64(len(blob)) {
					return 0, e.badGroup()
				}
				dst[i] = Str(blob[:l])
				sec, blob = sec[n:], blob[l:]
			}
			phys += len(cc.blob) - len(blob)
			cc.sec, cc.blob = sec, blob
		}
	}
	if r.left -= k; r.left == 0 {
		for _, cc := range r.cols {
			if len(cc.sec) != 0 || len(cc.blob) != 0 {
				return 0, e.badGroup()
			}
		}
	}
	return phys, nil
}
