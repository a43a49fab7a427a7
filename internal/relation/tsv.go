package relation

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// EncodeBytes returns the relation as TSV, the text a user reads: a two-line
// header
//
//	#schema	name:kind	name:kind ...
//	#logical	<bytes>
//
// and a line per row, its cells' text separated by tabs, rendered straight
// into one exactly sized buffer.
func (r *Relation) EncodeBytes() []byte {
	n := headerLen(r.Schema, r.LogicalBytes) + int(r.PhysicalBytes())
	if r.Schema.Arity() == 0 {
		n += len(r.Rows) // an empty row is a newline, which EncodedLen does not count
	}
	buf := appendHeader(make([]byte, 0, n), r.Schema, r.LogicalBytes)
	for _, row := range r.Rows {
		for i := range row {
			if i > 0 {
				buf = append(buf, '\t')
			}
			buf = row[i].AppendText(buf)
		}
		buf = append(buf, '\n')
	}
	return buf
}

// DecodeBytes parses an EncodeBytes or EncodeColumnar output, told apart by
// the stream's leading byte. The stream may come from anywhere (uploads, table
// files): numbers need not be canonically rendered ("1.50", "+7", "1e3") and a
// width byte need not be true, so no width is cached; blank lines are skipped
// unless the schema makes an empty line a row (a single string column, or
// none); and nothing is sized by a count the stream declares before the bytes
// that back it have been seen. The DFS, whose only writer is the Writer, opens
// its files through Open.
func DecodeBytes(name string, data []byte) (*Relation, error) {
	if len(data) == 0 || data[0] != columnarMagic[0] {
		return decodeText(name, data)
	}
	e, err := open(name, [][]byte{data}, 0, false)
	if err != nil {
		return nil, err
	}
	return e.Materialize()
}

// decodeText parses TSV whole, into one slab of cells sized by what the text
// holds: a row per line at most, and arity-1 tabs in every row's line, so the
// slab grows with the text's length however wide the schema it declares.
func decodeText(name string, data []byte) (*Relation, error) {
	cur := blockCursor{blocks: [][]byte{data}}
	schema, logical, err := readHeader(name, &cur)
	if err != nil {
		return nil, err
	}
	arity := schema.Arity()
	blankRow := arity == 0 || arity == 1 && schema.Cols[0].Kind == KindString
	n := bytes.Count(data, []byte{'\n'}) + 1
	if arity > 1 {
		n = min(n, bytes.Count(data, []byte{'\t'})/(arity-1))
	}
	vals := make([]Value, n*arity)
	r := &Relation{Name: name, Schema: schema, Rows: make([]Row, 0, n), LogicalBytes: logical}
	for {
		line, ok := cur.next()
		if !ok {
			return r, nil
		}
		if len(line) == 0 && !blankRow {
			continue
		}
		if len(vals) < arity {
			vals = make([]Value, arity) // past the bound: the line cannot parse
		}
		row := Row(vals[:arity:arity])
		vals = vals[arity:]
		if err := r.parseLine(line, row); err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, row)
	}
}

// headerLen returns the length of the header appendHeader writes.
func headerLen(s Schema, logical int64) int {
	n := len("#schema\n#logical\t\n") + intTextLen(logical)
	for _, c := range s.Cols {
		n += len("\t:") + len(c.Name) + len(c.Kind.String())
	}
	return n
}

// appendHeader appends the two header lines of both formats: text, whatever
// follows them.
func appendHeader(buf []byte, s Schema, logical int64) []byte {
	buf = append(buf, "#schema"...)
	for _, c := range s.Cols {
		buf = append(append(append(append(buf, '\t'), c.Name...), ':'), c.Kind.String()...)
	}
	return append(strconv.AppendInt(append(buf, "\n#logical\t"...), logical, 10), '\n')
}

// readHeader parses the two header lines at c.
func readHeader(name string, c *blockCursor) (s Schema, logical int64, err error) {
	head, ok := c.next()
	if !ok {
		return s, 0, fmt.Errorf("relation %s: empty stream", name)
	}
	header := strings.Split(string(head), "\t")
	if header[0] != "#schema" {
		return s, 0, fmt.Errorf("relation %s: missing #schema header", name)
	}
	for _, spec := range header[1:] {
		colName, kindStr, ok := strings.Cut(spec, ":")
		if !ok {
			return s, 0, fmt.Errorf("relation %s: bad column spec %q", name, spec)
		}
		kind, err := ParseKind(kindStr)
		if err != nil {
			return s, 0, err
		}
		s.Cols = append(s.Cols, Column{Name: colName, Kind: kind})
	}
	logLine, ok := c.next()
	if !ok {
		return s, 0, fmt.Errorf("relation %s: missing #logical header", name)
	}
	logField, found := strings.CutPrefix(string(logLine), "#logical\t")
	if logical, err = strconv.ParseInt(logField, 10, 64); !found || err != nil {
		return s, 0, fmt.Errorf("relation %s: bad #logical header %q", name, string(logLine))
	}
	return s, logical, nil
}

// parseLine parses one line of r's text into row, whose length is the
// schema's arity. Numbers parse from the line's bytes; a string column costs
// the line one string, which its string cells share. A numeric cell is written
// field by field, with no pointer store: fresh from make, what a number leaves
// unset (S, and I or F) is already zero.
func (r *Relation) parseLine(line []byte, row Row) error {
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
			return fmt.Errorf("relation %s: row arity %d != %d", r.Name, c+1+bytes.Count(tail, []byte{'\t'}), arity)
		}
		cell := &row[c]
		if kind := r.Schema.Cols[c].Kind; kind == KindString {
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
				return fmt.Errorf("relation %s: parse %s %q: %w", r.Name, kind, field, err)
			}
		}
		if !more {
			if c+1 != arity {
				return fmt.Errorf("relation %s: row arity %d != %d", r.Name, c+1, arity)
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
