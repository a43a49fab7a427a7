package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Codec selects a relation wire format.
type Codec uint8

const (
	// CodecTSV is the text format of Encode/Decode: a two-line header
	// followed by tab-separated rows. It is the default everywhere data is
	// user-visible — workflow sources, published sinks, golden fixtures.
	CodecTSV Codec = iota
	// CodecColumnar is the length-prefixed binary columnar format of
	// EncodeColumnar: per-column blocks with zigzag-varint integers, raw
	// IEEE-754 float bits, and offset-indexed string data. It is used for
	// intra-run shuffles, where it typically encodes to well under the TSV
	// size and round-trips values (including tabs and newlines inside
	// strings) exactly.
	CodecColumnar
)

// DefaultColumnarRatio is the a-priori estimate of the columnar codec's
// encoded size relative to the TSV rendering of the same relation —
// conservative for numeric-heavy shuffles (varints shrink small ints far
// more) and roughly right for mixed string/number rows. Estimators use it
// until the flight recorder's shuffle counters provide a measured ratio.
const DefaultColumnarRatio = 0.55

// String returns the codec's lower-case name.
func (c Codec) String() string {
	switch c {
	case CodecColumnar:
		return "columnar"
	default:
		return "tsv"
	}
}

// columnarMagic prefixes every columnar stream. The leading byte is an
// invalid UTF-8 start byte, so no TSV stream (which begins "#schema") can
// collide with it.
var columnarMagic = [5]byte{0xb1, 'M', 'K', 'C', '1'}

// SniffCodec inspects an encoded stream's leading bytes and reports which
// codec produced it.
func SniffCodec(data []byte) Codec {
	if len(data) >= len(columnarMagic) && [5]byte(data[:5]) == columnarMagic {
		return CodecColumnar
	}
	return CodecTSV
}

// EncodeColumnar renders the relation in the binary columnar format:
//
//	magic (5 bytes)
//	uvarint ncols, then per column: uvarint len(name), name, 1 byte kind
//	uvarint logicalBytes
//	uvarint nrows
//	per column: uvarint blockLen, then the block:
//	  int     zigzag varint per row
//	  float   8-byte little-endian IEEE-754 bits per row
//	  string  uvarint totalBytes, the concatenated bytes, then one uvarint
//	          cumulative end offset per row (the offset index)
//
// Values are coerced to their column's declared kind, mirroring what a TSV
// encode/decode round trip does via text parsing. Above the parallel
// threshold the per-column blocks encode concurrently.
func (r *Relation) EncodeColumnar(o CodecOptions) []byte {
	head := make([]byte, 0, 64)
	head = append(head, columnarMagic[:]...)
	head = binary.AppendUvarint(head, uint64(len(r.Schema.Cols)))
	for _, c := range r.Schema.Cols {
		head = binary.AppendUvarint(head, uint64(len(c.Name)))
		head = append(head, c.Name...)
		head = append(head, byte(c.Kind))
	}
	head = binary.AppendUvarint(head, uint64(r.LogicalBytes))
	head = binary.AppendUvarint(head, uint64(len(r.Rows)))

	blocks := make([][]byte, len(r.Schema.Cols))
	if len(r.Rows) >= o.threshold() && len(r.Schema.Cols) > 1 {
		var wg sync.WaitGroup
		for ci := range r.Schema.Cols {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				blocks[ci] = r.encodeColumn(ci)
			}(ci)
		}
		wg.Wait()
	} else {
		for ci := range r.Schema.Cols {
			blocks[ci] = r.encodeColumn(ci)
		}
	}
	out := head
	for _, b := range blocks {
		out = binary.AppendUvarint(out, uint64(len(b)))
		out = append(out, b...)
	}
	return out
}

// encodeColumn renders one column's block.
func (r *Relation) encodeColumn(ci int) []byte {
	switch r.Schema.Cols[ci].Kind {
	case KindInt:
		b := make([]byte, 0, len(r.Rows)*2)
		for _, row := range r.Rows {
			b = binary.AppendVarint(b, row[ci].AsInt())
		}
		return b
	case KindFloat:
		b := make([]byte, 0, len(r.Rows)*8)
		for _, row := range r.Rows {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(row[ci].AsFloat()))
		}
		return b
	default:
		var total uint64
		for _, row := range r.Rows {
			total += uint64(len(row[ci].String()))
		}
		b := make([]byte, 0, int(total)+len(r.Rows)+10)
		b = binary.AppendUvarint(b, total)
		for _, row := range r.Rows {
			b = append(b, row[ci].String()...)
		}
		var end uint64
		for _, row := range r.Rows {
			end += uint64(len(row[ci].String()))
			b = binary.AppendUvarint(b, end)
		}
		return b
	}
}

// DecodeColumnar parses an EncodeColumnar stream. Column blocks decode
// concurrently above the parallel threshold; each fills its own stride of a
// shared row-major value arena, so decoded row order is deterministic.
func DecodeColumnar(name string, data []byte, o CodecOptions) (*Relation, error) {
	if SniffCodec(data) != CodecColumnar {
		return nil, fmt.Errorf("relation %s: missing columnar magic", name)
	}
	pos := len(columnarMagic)
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("relation %s: truncated columnar header", name)
		}
		pos += n
		return v, nil
	}
	ncols, err := readUvarint()
	if err != nil {
		return nil, err
	}
	schema := Schema{Cols: make([]Column, ncols)}
	for ci := range schema.Cols {
		nameLen, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if pos+int(nameLen)+1 > len(data) {
			return nil, fmt.Errorf("relation %s: truncated columnar header", name)
		}
		colName := string(data[pos : pos+int(nameLen)])
		pos += int(nameLen)
		kind := Kind(data[pos])
		pos++
		if kind > KindString {
			return nil, fmt.Errorf("relation %s: bad column kind %d", name, kind)
		}
		schema.Cols[ci] = Column{Name: colName, Kind: kind}
	}
	logical, err := readUvarint()
	if err != nil {
		return nil, err
	}
	nrows64, err := readUvarint()
	if err != nil {
		return nil, err
	}
	nrows := int(nrows64)
	rel := New(name, schema)
	rel.LogicalBytes = int64(logical)

	blocks := make([][]byte, ncols)
	for ci := range blocks {
		blockLen, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if pos+int(blockLen) > len(data) {
			return nil, fmt.Errorf("relation %s: truncated column block %d", name, ci)
		}
		blocks[ci] = data[pos : pos+int(blockLen)]
		pos += int(blockLen)
	}
	if nrows == 0 {
		return rel, nil
	}

	// Row-major arena shared by all columns; column ci fills slots
	// [row*ncols + ci], so concurrent column decoders touch disjoint
	// elements.
	arity := int(ncols)
	flat := make([]Row, 0, nrows)
	vals := make([]Value, nrows*arity)
	for rI := 0; rI < nrows; rI++ {
		flat = append(flat, vals[rI*arity:(rI+1)*arity:(rI+1)*arity])
	}
	rel.Rows = flat
	errs := make([]error, ncols)
	if nrows >= o.threshold() && arity > 1 {
		var wg sync.WaitGroup
		for ci := range blocks {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				errs[ci] = decodeColumn(name, schema.Cols[ci].Kind, blocks[ci], vals, ci, arity, nrows)
			}(ci)
		}
		wg.Wait()
	} else {
		for ci := range blocks {
			errs[ci] = decodeColumn(name, schema.Cols[ci].Kind, blocks[ci], vals, ci, arity, nrows)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// decodeColumn parses one column block into its stride of the value arena.
func decodeColumn(name string, kind Kind, block []byte, vals []Value, ci, arity, nrows int) error {
	switch kind {
	case KindInt:
		for rI := 0; rI < nrows; rI++ {
			v, n := binary.Varint(block)
			if n <= 0 {
				return fmt.Errorf("relation %s: truncated int column %d", name, ci)
			}
			block = block[n:]
			vals[rI*arity+ci] = Int(v)
		}
	case KindFloat:
		if len(block) < nrows*8 {
			return fmt.Errorf("relation %s: truncated float column %d", name, ci)
		}
		for rI := 0; rI < nrows; rI++ {
			bits := binary.LittleEndian.Uint64(block[rI*8:])
			vals[rI*arity+ci] = Float(math.Float64frombits(bits))
		}
	default:
		total, n := binary.Uvarint(block)
		if n <= 0 || n+int(total) > len(block) {
			return fmt.Errorf("relation %s: truncated string column %d", name, ci)
		}
		// One backing string per column; row values are substrings of it.
		backing := string(block[n : n+int(total)])
		block = block[n+int(total):]
		var start uint64
		for rI := 0; rI < nrows; rI++ {
			end, n := binary.Uvarint(block)
			if n <= 0 || end < start || end > total {
				return fmt.Errorf("relation %s: bad string offset in column %d", name, ci)
			}
			block = block[n:]
			vals[rI*arity+ci] = Str(backing[start:end])
			start = end
		}
	}
	return nil
}
