package relation

import (
	"fmt"
	"strings"
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
// of the TSV body EncodeBytes writes. Cells that carry a cached width cost a
// byte add; the rest are measured, with no WidthMemo: a relation sized here
// is mostly an AGG output, whose one sum per group is new by construction.
// The rows are only read.
func (r *Relation) PhysicalBytes() int64 { return r.physicalBytes(false) }

// StampPhysicalBytes is PhysicalBytes for a relation whose row storage the
// caller has just built and not yet shared: the widths it measures are
// cached in the cells (see Row.StampEncodedLen), so no later sizing of these
// rows, or of rows copied from them, renders a number again.
func (r *Relation) StampPhysicalBytes() int64 { return r.physicalBytes(true) }

func (r *Relation) physicalBytes(stamp bool) int64 {
	var n int64
	for _, row := range r.Rows {
		n += row.encodedLen(stamp, nil)
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

// CodecOptions is the argument EncodeColumnar and DecodeColumnar take; it has
// no field.
type CodecOptions struct{}

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
