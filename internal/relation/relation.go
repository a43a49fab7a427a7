package relation

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// Column is one named, typed column of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema describes the columns of a relation.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from "name:kind" specs, e.g. "uid:int",
// "price:float", "town:string". It panics on malformed specs; schemas are
// built from literals in workload definitions, not from user input.
func NewSchema(specs ...string) Schema {
	cols := make([]Column, len(specs))
	for i, spec := range specs {
		name, kindStr, ok := strings.Cut(spec, ":")
		if !ok {
			panic(fmt.Sprintf("relation: schema spec %q missing ':'", spec))
		}
		kind, err := ParseKind(kindStr)
		if err != nil {
			panic(err)
		}
		cols[i] = Column{Name: name, Kind: kind}
	}
	return Schema{Cols: cols}
}

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Cols) }

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustIndex is Index but returns an error for unknown columns.
func (s Schema) MustIndex(name string) (int, error) {
	if i := s.Index(name); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("relation: no column %q in schema %s", name, s)
}

// Project returns the schema restricted to the given column positions.
func (s Schema) Project(cols []int) Schema {
	out := Schema{Cols: make([]Column, len(cols))}
	for i, c := range cols {
		out.Cols[i] = s.Cols[c]
	}
	return out
}

// Concat returns the concatenation of two schemas, renaming collisions on
// the right side with a "r_" prefix (as a join materialization would).
func (s Schema) Concat(o Schema) Schema {
	out := Schema{Cols: make([]Column, 0, len(s.Cols)+len(o.Cols))}
	out.Cols = append(out.Cols, s.Cols...)
	for _, c := range o.Cols {
		name := c.Name
		for out.Index(name) >= 0 {
			name = "r_" + name
		}
		out.Cols = append(out.Cols, Column{Name: name, Kind: c.Kind})
	}
	return out
}

// Equal reports structural equality of two schemas.
func (s Schema) Equal(o Schema) bool {
	if len(s.Cols) != len(o.Cols) {
		return false
	}
	for i := range s.Cols {
		if s.Cols[i] != o.Cols[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(name:kind, ...)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(':')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Relation is a named, schema'd bag of rows.
//
// LogicalBytes is the size the relation *represents* in the simulated
// deployment. Workload generators materialize a downscaled physical sample
// (len(Rows) rows) but stamp the paper-scale logical size; the cost model
// and the simulated makespans operate on logical sizes, while operator
// semantics and statistics (selectivities, output ratios) come from the
// physical rows. A LogicalBytes of 0 means "physical only": the encoded
// byte size is used.
type Relation struct {
	Name         string
	Schema       Schema
	Rows         []Row
	LogicalBytes int64
}

// New returns an empty relation with the given name and schema.
func New(name string, schema Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Append adds a row, which must match the schema arity.
func (r *Relation) Append(row Row) error {
	if len(row) != r.Schema.Arity() {
		return fmt.Errorf("relation %s: row arity %d != schema arity %d", r.Name, len(row), r.Schema.Arity())
	}
	r.Rows = append(r.Rows, row)
	return nil
}

// MustAppend is Append but panics on arity mismatch; used by generators.
func (r *Relation) MustAppend(row Row) {
	if err := r.Append(row); err != nil {
		panic(err)
	}
}

// NumRows returns the physical row count.
func (r *Relation) NumRows() int { return len(r.Rows) }

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	c := &Relation{Name: r.Name, Schema: r.Schema, LogicalBytes: r.LogicalBytes}
	c.Rows = make([]Row, len(r.Rows))
	for i, row := range r.Rows {
		c.Rows[i] = row.Clone()
	}
	return c
}

// PhysicalBytes returns the encoded size of the relation's rows: the length
// of the TSV body Encode writes. Cells that carry a cached width cost a byte
// add; the rest are measured without allocating. The rows are only read.
func (r *Relation) PhysicalBytes() int64 { return r.physicalBytes(false) }

// StampPhysicalBytes is PhysicalBytes for a relation whose row storage the
// caller has just built and not yet shared: the widths it measures are
// cached in the cells (see Row.StampEncodedLen), so no later sizing of these
// rows, or of rows copied from them, renders a number again.
func (r *Relation) StampPhysicalBytes() int64 { return r.physicalBytes(true) }

func (r *Relation) physicalBytes(stamp bool) int64 {
	var n int64
	for _, row := range r.Rows {
		n += row.encodedLen(stamp)
	}
	return n
}

// CheckWidths verifies the invariant size accounting rests on: every cell of
// rel that carries a cached width renders to exactly that many bytes. It is
// a test helper — the execution suites run it over every relation they keep
// — and nothing on the execution path calls it.
func CheckWidths(rel *Relation) error {
	for i, row := range rel.Rows {
		for j, v := range row {
			if v.Kind == KindString || v.w == 0 {
				continue
			}
			if n := len(v.AppendText(nil)); n != int(v.w) {
				return fmt.Errorf("relation %s: row %d col %d: cached width %d, but %q is %d bytes", rel.Name, i, j, v.w, v.String(), n)
			}
		}
	}
	return nil
}

// EffectiveBytes returns LogicalBytes when set, else the physical size.
func (r *Relation) EffectiveBytes() int64 {
	if r.LogicalBytes > 0 {
		return r.LogicalBytes
	}
	return r.PhysicalBytes()
}

// ScaleRatio returns logical/physical size; 1 when no logical size is set.
// Output relations inherit their inputs' ratio so volumes stay consistent
// as data flows through a workflow.
func (r *Relation) ScaleRatio() float64 {
	if r.LogicalBytes <= 0 {
		return 1
	}
	phys := r.PhysicalBytes()
	if phys == 0 {
		return 1
	}
	return float64(r.LogicalBytes) / float64(phys)
}

// CodecParallelThreshold is the default row count above which the codecs
// split row work across goroutines. Materializing intermediates on the DFS
// between (simulated) Hadoop jobs funnels through these codecs, so large
// relations encode/decode chunk-parallel; the chunk outputs are concatenated
// in input order, so the byte stream and decoded row order are identical to
// the serial paths. Callers (and tests, which force both paths on small
// data) override it per call via CodecOptions rather than mutating this
// package global.
var CodecParallelThreshold = 8192

// CodecOptions parameterizes one codec invocation.
type CodecOptions struct {
	// ParallelThreshold is the row count at or above which this call uses
	// the chunk-parallel path. Zero selects the package default
	// (CodecParallelThreshold); a value above the row count forces the
	// serial path, 1 forces the parallel path.
	ParallelThreshold int
}

// threshold resolves the effective parallel threshold for a call.
func (o CodecOptions) threshold() int {
	if o.ParallelThreshold > 0 {
		return o.ParallelThreshold
	}
	return CodecParallelThreshold
}

// codecChunks splits [0, n) into roughly GOMAXPROCS contiguous ranges,
// folding a tiny trailing remainder into the previous range.
func codecChunks(n int) [][2]int {
	if n <= 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	size := (n + workers - 1) / workers
	ranges := make([][2]int, 0, workers)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		ranges = append(ranges, [2]int{lo, hi})
	}
	if k := len(ranges); k >= 2 && ranges[k-1][1]-ranges[k-1][0] < size/2 {
		ranges[k-2][1] = ranges[k-1][1]
		ranges = ranges[:k-1]
	}
	return ranges
}

// appendTSVRow appends one row in the TSV wire format.
func appendTSVRow(dst []byte, row Row) []byte {
	for i, v := range row {
		if i > 0 {
			dst = append(dst, '\t')
		}
		dst = v.AppendText(dst)
	}
	return append(dst, '\n')
}

// Encode writes the relation as a TSV stream with a two-line header:
//
//	#schema	name:kind	name:kind ...
//	#logical	<bytes>
//
// Rows are rendered with AppendText into buffers (no per-field string
// allocation); above the parallel threshold the row chunks encode
// concurrently and are written out in order.
func (r *Relation) Encode(w io.Writer) error {
	return r.EncodeOpts(w, CodecOptions{})
}

// EncodeOpts is Encode with per-call codec options.
func (r *Relation) EncodeOpts(w io.Writer, o CodecOptions) error {
	buf := make([]byte, 0, 256)
	buf = append(buf, "#schema"...)
	for _, c := range r.Schema.Cols {
		buf = append(buf, '\t')
		buf = append(buf, c.Name...)
		buf = append(buf, ':')
		buf = append(buf, c.Kind.String()...)
	}
	buf = append(buf, '\n')
	buf = append(buf, "#logical\t"...)
	buf = strconv.AppendInt(buf, r.LogicalBytes, 10)
	buf = append(buf, '\n')
	if len(r.Rows) >= o.threshold() {
		chunks := codecChunks(len(r.Rows))
		encoded := make([][]byte, len(chunks))
		var wg sync.WaitGroup
		for ci, rg := range chunks {
			wg.Add(1)
			go func(ci, lo, hi int) {
				defer wg.Done()
				b := make([]byte, 0, (hi-lo)*16)
				for _, row := range r.Rows[lo:hi] {
					b = appendTSVRow(b, row)
				}
				encoded[ci] = b
			}(ci, rg[0], rg[1])
		}
		wg.Wait()
		if _, err := w.Write(buf); err != nil {
			return err
		}
		for _, b := range encoded {
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
		return nil
	}
	for _, row := range r.Rows {
		buf = appendTSVRow(buf, row)
		if len(buf) >= 64<<10 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// EncodeBytes returns the Encode output as a byte slice.
func (r *Relation) EncodeBytes() []byte {
	return r.EncodeBytesOpts(CodecOptions{})
}

// EncodeBytesOpts is EncodeBytes with per-call codec options.
func (r *Relation) EncodeBytesOpts(o CodecOptions) []byte {
	var buf bytes.Buffer
	if err := r.EncodeOpts(&buf, o); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// Decode parses a stream produced by Encode.
func Decode(name string, rd io.Reader) (*Relation, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		return nil, fmt.Errorf("relation %s: empty stream", name)
	}
	header := strings.Split(sc.Text(), "\t")
	if header[0] != "#schema" {
		return nil, fmt.Errorf("relation %s: missing #schema header", name)
	}
	schema := Schema{}
	for _, spec := range header[1:] {
		colName, kindStr, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("relation %s: bad column spec %q", name, spec)
		}
		kind, err := ParseKind(kindStr)
		if err != nil {
			return nil, err
		}
		schema.Cols = append(schema.Cols, Column{Name: colName, Kind: kind})
	}
	rel := New(name, schema)
	if !sc.Scan() {
		return nil, fmt.Errorf("relation %s: missing #logical header", name)
	}
	if _, err := fmt.Sscanf(sc.Text(), "#logical\t%d", &rel.LogicalBytes); err != nil {
		return nil, fmt.Errorf("relation %s: bad #logical header %q", name, sc.Text())
	}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != schema.Arity() {
			return nil, fmt.Errorf("relation %s: row arity %d != %d", name, len(fields), schema.Arity())
		}
		row := make(Row, len(fields))
		for i, f := range fields {
			v, err := ParseValue(schema.Cols[i].Kind, f)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel, sc.Err()
}

// DecodeBytes parses an EncodeBytes or EncodeColumnar output, sniffing the
// codec from the stream's leading bytes. It is the DFS read path: unlike
// the streaming Decode it can chunk the TSV row section by newline
// boundaries (or the columnar stream by column block) and parse chunks
// concurrently above the parallel threshold, keeping decoded row order
// identical to the serial scan.
func DecodeBytes(name string, data []byte) (*Relation, error) {
	return DecodeBytesOpts(name, data, CodecOptions{})
}

// DecodeBytesOpts is DecodeBytes with per-call codec options.
func DecodeBytesOpts(name string, data []byte, o CodecOptions) (*Relation, error) {
	return decodeBytes(name, data, o, false)
}

// DecodeEncoded is DecodeBytes for data that is, byte for byte, what
// EncodeCodec wrote — the DFS, whose only writer is the encoder, reads
// through it. A TSV field Encode wrote is the canonical rendering of the
// number it parses to, so its length is the cell's text width and decoding
// caches it for free (see stampEncoded). Text from anywhere else ("1.50",
// "+7", "1e3") parses to the same values but has other lengths: it must go
// through DecodeBytes, which caches nothing.
func DecodeEncoded(name string, data []byte) (*Relation, error) {
	return decodeBytes(name, data, CodecOptions{}, true)
}

// decodeBytes implements DecodeBytesOpts; encoded marks DecodeEncoded's
// trusted input.
func decodeBytes(name string, data []byte, o CodecOptions, encoded bool) (*Relation, error) {
	if SniffCodec(data) == CodecColumnar {
		return DecodeColumnar(name, data, o)
	}
	head, rest, ok := bytes.Cut(data, []byte{'\n'})
	if !ok && len(data) == 0 {
		return nil, fmt.Errorf("relation %s: empty stream", name)
	}
	header := strings.Split(string(head), "\t")
	if header[0] != "#schema" {
		return nil, fmt.Errorf("relation %s: missing #schema header", name)
	}
	schema := Schema{}
	for _, spec := range header[1:] {
		colName, kindStr, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("relation %s: bad column spec %q", name, spec)
		}
		kind, err := ParseKind(kindStr)
		if err != nil {
			return nil, err
		}
		schema.Cols = append(schema.Cols, Column{Name: colName, Kind: kind})
	}
	rel := New(name, schema)
	logLine, body, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok && len(logLine) == 0 {
		return nil, fmt.Errorf("relation %s: missing #logical header", name)
	}
	logField, found := strings.CutPrefix(string(logLine), "#logical\t")
	if !found {
		return nil, fmt.Errorf("relation %s: bad #logical header %q", name, string(logLine))
	}
	logical, err := strconv.ParseInt(logField, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("relation %s: bad #logical header %q", name, string(logLine))
	}
	rel.LogicalBytes = logical
	// Cheap row estimate decides whether chunked parallel parsing pays off.
	if bytes.Count(body, []byte{'\n'}) >= o.threshold() {
		chunks := splitAtLines(body, runtime.GOMAXPROCS(0))
		parts := make([][]Row, len(chunks))
		errs := make([]error, len(chunks))
		var wg sync.WaitGroup
		for ci, chunk := range chunks {
			wg.Add(1)
			go func(ci int, chunk []byte) {
				defer wg.Done()
				parts[ci], errs[ci] = parseRows(name, schema, chunk, encoded)
			}(ci, chunk)
		}
		wg.Wait()
		total := 0
		for ci := range chunks {
			if errs[ci] != nil {
				return nil, errs[ci]
			}
			total += len(parts[ci])
		}
		rel.Rows = make([]Row, 0, total)
		for _, p := range parts {
			rel.Rows = append(rel.Rows, p...)
		}
		return rel, nil
	}
	rel.Rows, err = parseRows(name, schema, body, encoded)
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// splitAtLines cuts data into at most n chunks whose boundaries fall on
// newline boundaries, preserving order and covering every byte.
func splitAtLines(data []byte, n int) [][]byte {
	if n < 1 {
		n = 1
	}
	var chunks [][]byte
	size := (len(data) + n - 1) / n
	for lo := 0; lo < len(data); {
		hi := lo + size
		if hi >= len(data) {
			chunks = append(chunks, data[lo:])
			break
		}
		if j := bytes.IndexByte(data[hi:], '\n'); j >= 0 {
			hi += j + 1
		} else {
			hi = len(data)
		}
		chunks = append(chunks, data[lo:hi])
		lo = hi
	}
	return chunks
}

// parseRows parses a run of TSV row lines against the schema. encoded says
// Encode wrote the lines, so numeric cells take their width from the text.
// Every row's cells are carved from one value slab sized by the line count.
func parseRows(name string, schema Schema, data []byte, encoded bool) ([]Row, error) {
	arity := schema.Arity()
	var rows []Row
	var vals []Value
	if n := bytes.Count(data, []byte{'\n'}); n > 0 {
		rows = make([]Row, 0, n+1)
		vals = make([]Value, (n+1)*arity)
	}
	for len(data) > 0 {
		lineBytes, rest, _ := bytes.Cut(data, []byte{'\n'})
		data = rest
		if len(lineBytes) == 0 {
			continue
		}
		// One string allocation per line; field substrings share it (string
		// values in the decoded rows pin the line, as the scanner path did).
		line := string(lineBytes)
		if len(vals) < arity {
			vals = make([]Value, arity)
		}
		row := Row(vals[:0:arity])
		vals = vals[arity:]
		for {
			field, restF, found := strings.Cut(line, "\t")
			if len(row) == arity {
				return nil, fmt.Errorf("relation %s: row arity %d != %d", name, len(row)+1+strings.Count(restF, "\t"), arity)
			}
			v, err := ParseValue(schema.Cols[len(row)].Kind, field)
			if err != nil {
				return nil, err
			}
			if encoded {
				v.stampEncoded(field)
			}
			row = append(row, v)
			if !found {
				break
			}
			line = restF
		}
		if len(row) != arity {
			return nil, fmt.Errorf("relation %s: row arity %d != %d", name, len(row), arity)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SortRows orders rows lexicographically in place; used to compare engine
// outputs independent of execution order.
func (r *Relation) SortRows() {
	sortRows(r.Rows)
}

// Fingerprint returns a deterministic digest of the relation's contents
// (order-independent): sorted row renderings joined by newlines.
func (r *Relation) Fingerprint() string {
	lines := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		lines[i] = strings.Join(parts, "\t")
	}
	sortStrings(lines)
	return strings.Join(lines, "\n")
}
