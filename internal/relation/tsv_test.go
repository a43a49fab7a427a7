package relation

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// chop cuts data into blocks of size bytes (the last one shorter), as a DFS
// with that block size stores it; size 0 keeps it whole.
func chop(data []byte, size int) [][]byte {
	if size <= 0 {
		return [][]byte{data}
	}
	var blocks [][]byte
	for ; len(data) > size; data = data[size:] {
		blocks = append(blocks, data[:size])
	}
	return append(blocks, data)
}

// mixedRelation has every kind, empty strings, negative numbers and — in the
// float column — integers of 6, 7 and 8 digits held as Ints, which is what an
// ARITH over int operands stores there (see stampEncoded).
func mixedRelation(n int) *Relation {
	r := New("m", NewSchema("id:int", "f:float", "s:string"))
	for i := 0; i < n; i++ {
		f := Float(float64(i)*-0.25 + 0.5)
		switch i % 5 {
		case 2:
			f = Int(999999 + int64(i%3)*9000001) // 999999, 9999999+1, …
		case 3:
			f = Int(-12345678)
		}
		s := fmt.Sprintf("row %d", i)
		if i%7 == 0 {
			s = ""
		}
		r.Rows = append(r.Rows, Row{Int(int64(i - n/2)), f, Str(s)})
	}
	return r
}

// readAll pulls src dry, cloning what each batch holds (a reader recycles its
// arena) and running CheckWidths over every batch.
func readAll(t *testing.T, src RowSource) []Row {
	t.Helper()
	var rows []Row
	for {
		b, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b.Empty() {
			if again, err := src.Next(); err != nil || !again.Empty() {
				t.Fatalf("Next after exhaustion = %d rows, %v", len(again.Rows), err)
			}
			return rows
		}
		if err := CheckWidths(&Relation{Name: "batch", Rows: b.Rows}); err != nil {
			t.Fatal(err)
		}
		for _, row := range b.Rows {
			rows = append(rows, row.Clone())
		}
	}
}

// sameText compares rows read back with the rows that were written: equal
// strings and equal numbers, whatever widths are cached — and an Int stored
// in a float column comes back a Float.
func sameText(t *testing.T, label string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		for j, w := range want[i] {
			if g := got[i][j]; g.S != w.S || g.AsFloat() != w.AsFloat() || (g.Kind == KindString) != (w.Kind == KindString) {
				t.Fatalf("%s: row %d col %d = %v, want %v", label, i, j, g, w)
			}
		}
	}
}

// sameRows compares rows bit for bit, cached widths included: a streamed
// row must size exactly like a materialized one.
func sameRows(t *testing.T, label string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] && !(got[i][j].Kind == KindFloat && math.IsNaN(got[i][j].F) && math.IsNaN(want[i][j].F)) {
				t.Fatalf("%s: row %d col %d = %#v, want %#v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestReaderMatchesMaterialize: whatever the block size, batch size and row
// range, the readers decode the rows Materialize does — values and cached
// widths — and meter their canonical size.
func TestReaderMatchesMaterialize(t *testing.T) {
	for _, n := range []int{0, 1, 2, 57} {
		rel := mixedRelation(n)
		enc := rel.EncodeBytes()
		for _, data := range [][]byte{enc, enc[:max(len(enc)-1, 0)]} { // with and without the final newline
			whole, err := Open("m", chop(data, 0), n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := whole.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			sameText(t, "materialized vs original", want.Rows, rel.Rows)
			// The canonical size is that of the rows as decoded: an Int read
			// back from a float column re-renders as a Float.
			canon := int64(len(tsvBody(t, want.EncodeBytes())))
			if got := whole.PhysicalBytes(); got != canon || want.PhysicalBytes() != canon {
				t.Fatalf("meter after Materialize = %d, PhysicalBytes %d, canonical body %d", got, want.PhysicalBytes(), canon)
			}
			for _, size := range []int{1, 7, 64} {
				for _, batch := range []int{1, 2, 3, 1024} {
					e, err := Open("m", chop(data, size), n)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("rows=%d block=%d batch=%d", n, size, batch)
					cut := n / 3
					got := readAll(t, e.Reader(cut, n, batch, false)) // ranges in any order
					got = append(readAll(t, e.Reader(0, cut, batch, true)), got...)
					sameRows(t, label, got, want.Rows)
					if e.PhysicalBytes() != canon {
						t.Fatalf("%s: meter = %d, canonical size %d", label, e.PhysicalBytes(), canon)
					}
				}
			}
		}
	}
}

// TestReaderArenas: a recycling reader sizes its arena by demand and reuses
// it; a fresh one hands out rows that survive later batches.
func TestReaderArenas(t *testing.T) {
	rel := mixedRelation(40)
	e, err := Open("m", chop(rel.EncodeBytes(), 64), 40)
	if err != nil {
		t.Fatal(err)
	}
	r := e.Reader(0, 40, DefaultBatchRows, false).(*tsvReader)
	if b, err := r.Next(); err != nil || len(b.Rows) != 40 {
		t.Fatalf("first batch = %d rows, %v", len(b.Rows), err)
	}
	if len(r.vals) != 40*3 || cap(r.rows) != 40 {
		t.Errorf("arena of %d cells and %d row headers for a 40-row range", len(r.vals), cap(r.rows))
	}
	var kept []Row
	src := e.Reader(0, 40, 3, true)
	for {
		b, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b.Empty() {
			break
		}
		kept = append(kept, b.Rows...) // no clone
	}
	sameText(t, "rows kept from fresh batches", kept, rel.Rows)
}

// TestOpenedTextMustMatchItsRowCount: the DFS read path fails loudly when
// the text does not hold the rows its writer recorded, whichever way.
func TestOpenedTextMustMatchItsRowCount(t *testing.T) {
	enc := mixedRelation(10).EncodeBytes()
	for _, c := range []struct {
		rows int
		want string
	}{{9, "continues past the 9 rows"}, {11, "ends 1 rows short of the 11"}} {
		e, err := Open("m", chop(enc, 16), c.rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Materialize(); err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "relation m") {
			t.Errorf("Materialize with %d recorded rows: %v", c.rows, err)
		}
		e, _ = Open("m", chop(enc, 16), c.rows)
		src, err := e.Reader(c.rows/2, c.rows, 4, false), error(nil)
		for b := (Batch{Rows: make([]Row, 1)}); err == nil && !b.Empty(); {
			b, err = src.Next()
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("last range with %d recorded rows: %v", c.rows, err)
		}
	}
	// A blank line in the encoder's own text is a row, and fails as one.
	if e, err := Open("m", chop([]byte("#schema\ta:int\tb:int\n#logical\t0\n1\t2\n\n"), 0), 2); err != nil {
		t.Fatal(err)
	} else if _, err := e.Materialize(); err == nil || !strings.Contains(err.Error(), `relation m: parse int ""`) {
		t.Errorf("blank line in an exact file: %v", err)
	}
}

// TestRowErrorsNameTheRelation pins the arity and parse checks, through both
// entry points and across block boundaries.
func TestRowErrorsNameTheRelation(t *testing.T) {
	head := "#schema\ta:int\tb:float\n#logical\t0\n"
	for _, c := range []struct{ body, want string }{
		{"1\n", "relation bad: row arity 1 != 2"},
		{"1\t2\t3\n", "relation bad: row arity 3 != 2"},
		{"1\t2\t3\t4\t5\n", "relation bad: row arity 4 != 2"}, // the count stops one short, as it always has
		{"x\t1\n", `relation bad: parse int "x"`},
		{"1\t1.5.2\n", `relation bad: parse float "1.5.2"`},
		{"99999999999999999999\t1\n", "value out of range"},
		{"1\t\n", `relation bad: parse float ""`},
	} {
		text := []byte(head + "7\t0.5\n" + c.body)
		if _, err := DecodeBytes("bad", text); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("DecodeBytes(%q): %v, want %q", c.body, err, c.want)
		}
		e, err := Open("bad", chop(text, 3), 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Materialize(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Open+Materialize(%q): %v, want %q", c.body, err, c.want)
		}
	}
}

// TestEmptyLineIsARowWhenItParsesAsOne is the regression for the silent row
// loss: the old decoder skipped every empty line, so a one-column string
// relation holding "" came back shorter than it was written.
func TestEmptyLineIsARowWhenItParsesAsOne(t *testing.T) {
	one := New("s", NewSchema("s:string"))
	for _, s := range []string{"a", "", "b", "", ""} {
		one.Rows = append(one.Rows, Row{Str(s)})
	}
	none := New("z", Schema{})
	none.Rows = []Row{{}, {}, {}}
	for _, rel := range []*Relation{one, none} {
		for _, trusted := range []bool{false, true} {
			got, err := DecodeBytes(rel.Name, rel.EncodeBytes())
			if trusted {
				got, err = openDecode(rel.Name, rel.EncodeBytes(), len(rel.Rows))
			}
			if err != nil {
				t.Fatal(err)
			}
			sameText(t, rel.Name, got.Rows, rel.Rows)
		}
		e, err := Open(rel.Name, chop(rel.EncodeBytes(), 1), len(rel.Rows))
		if err != nil {
			t.Fatal(err)
		}
		sameText(t, rel.Name+" streamed", readAll(t, e.Reader(0, len(rel.Rows), 2, false)), rel.Rows)
	}
	// Foreign text of any other schema keeps tolerating blank lines.
	got, err := DecodeBytes("f", []byte("#schema\ta:int\n#logical\t0\n\n1\n\n\n2\n\n"))
	if err != nil || len(got.Rows) != 2 || got.Rows[1][0].I != 2 {
		t.Errorf("blank lines in foreign text: %v, %v", got, err)
	}
	got, err = DecodeBytes("f", []byte("#schema\ta:int\ts:string\n#logical\t0\n1\tx\n\n2\t\n"))
	if err != nil || len(got.Rows) != 2 || got.Rows[1][1].S != "" {
		t.Errorf("blank lines in foreign two-column text: %v, %v", got, err)
	}
}

// TestNumberFastPathsMatchStrconv: a numeric field parses to exactly what
// strconv makes of it — bit for bit, errors included — on the plain decimals
// the fast path takes and on everything that must fall through.
func TestNumberFastPathsMatchStrconv(t *testing.T) {
	fields := []string{"", "-", "+7", "007", "-0", "0", "9", "-9", "1_000", "12a", " 1", "1 ",
		"999999999999999999", "1000000000000000000", "-999999999999999999", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
		".", "-.", ".5", "5.", "-.5", "0.1", "0.30000000000000004", "123456789012345", "1234567890123456", "12345678901234.5", "0.000000000000001",
		"1.5.2", "1e3", "1E-3", "inf", "-Inf", "NaN", "0x1p-2", "1_0.5", "-0.0", "00.50", "999999999999999.9", "4503599627370497.5"}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		switch i % 4 {
		case 0:
			fields = append(fields, strconv.FormatInt(r.Int63()>>uint(r.Intn(63))*int64(1-2*r.Intn(2)), 10))
		case 1:
			fields = append(fields, strconv.FormatFloat(r.NormFloat64()*math.Pow10(r.Intn(30)-10), 'g', -1, 64))
		case 2:
			fields = append(fields, strconv.FormatFloat(float64(r.Intn(1e9))/math.Pow10(r.Intn(9)), 'f', -1, 64))
		default:
			digits := strconv.FormatUint(r.Uint64()>>uint(r.Intn(64)), 10)
			at := r.Intn(len(digits) + 1)
			fields = append(fields, digits[:at]+"."+digits[at:])
		}
	}
	ints := &Encoded{Name: "n", Schema: NewSchema("i:int")}
	floats := &Encoded{Name: "n", Schema: NewSchema("f:float")}
	for _, f := range fields {
		if strings.Contains(f, "\t") {
			continue
		}
		row := make(Row, 1)
		gerr := ints.parseLine([]byte(f), row)
		wi, werr := strconv.ParseInt(f, 10, 64)
		if (gerr == nil) != (werr == nil) || gerr == nil && row[0] != Int(wi) || gerr != nil && !strings.HasSuffix(gerr.Error(), werr.Error()) {
			t.Errorf("int field %q parsed to %v, %v; strconv says %d, %v", f, row[0], gerr, wi, werr)
		}
		row = make(Row, 1)
		gerr = floats.parseLine([]byte(f), row)
		wf, werr := strconv.ParseFloat(f, 64)
		if (gerr == nil) != (werr == nil) || gerr == nil && (row[0].Kind != KindFloat || math.Float64bits(row[0].F) != math.Float64bits(wf)) || gerr != nil && !strings.HasSuffix(gerr.Error(), werr.Error()) {
			t.Errorf("float field %q parsed to %v, %v; strconv says %v, %v", f, row[0], gerr, wf, werr)
		}
	}
}

// TestEncodeBytesSizedOnce: the encoder's output is one exactly sized buffer,
// serial or parallel, and what the writer allocates on the way numbers with
// the bytes written — a segment per 64 KB — not with the rows.
func TestEncodeBytesSizedOnce(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 5000} {
		rel := mixedRelation(n)
		enc := rel.EncodeBytesOpts(forceSerial)
		if cap(enc) != len(enc) {
			t.Errorf("%d rows: %d bytes in a buffer of %d", n, len(enc), cap(enc))
		}
		if par := rel.EncodeBytesOpts(forceParallel); string(par) != string(enc) || cap(par) != len(par) {
			t.Errorf("%d rows: parallel encoding differs or is not exactly sized (len %d cap %d)", n, len(par), cap(par))
		}
	}
	for _, n := range []int{5000, 50000} {
		big := mixedRelation(n)
		size := len(big.EncodeBytes())
		if got, limit := testing.AllocsPerRun(10, func() { _ = big.EncodeBytesOpts(forceSerial) }), float64(24+size/maxSegment); got > limit {
			t.Errorf("serial encode of %d rows (%d bytes): %v allocations, want at most %v", n, size, got, limit)
		}
	}
}

// TestFloatFastPathMatchesStrconv: appendFloat is byte-equal to strconv's
// shortest %g — over random bit patterns, n/10^k decimals, the 1e-4 / 1e6 /
// 15-digit boundaries and the specials — and TextLen is the rendered length.
func TestFloatFastPathMatchesStrconv(t *testing.T) {
	var got, want []byte
	checked := 0
	check := func(f float64) {
		for _, x := range [2]float64{f, -f} {
			checked++
			got, want = appendFloat(got[:0], x), strconv.AppendFloat(want[:0], x, 'g', -1, 64)
			if string(got) != string(want) {
				t.Fatalf("appendFloat(%b) = %q, strconv says %q", x, got, want)
			}
			if n := Float(x).TextLen(); n != len(want) {
				t.Fatalf("Float(%s).TextLen() = %d, want %d", want, n, len(want))
			}
		}
	}
	for _, f := range []float64{0, math.Inf(1), math.NaN(), 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, math.MaxFloat64,
		1e-4, 0.0001, 0.00009999999999999999, 0.001, 0.0005, 999999, 999999.999, 999999.9999, 1e6, 1000000.5, 1e15, 1e21,
		123456789012345, 12345.6789012345, 0.123456789012345, 999999999999999, 0.1 + 0.2, 0.15000000000000002, 1.0 / 3} {
		check(f)
		check(math.Nextafter(f, math.Inf(1)))
		check(math.Nextafter(f, math.Inf(-1)))
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 300_000; i++ {
		check(math.Float64frombits(rng.Uint64()))
		// Every exponent the fast path covers, and its neighbours.
		check(rng.Float64() * math.Pow(10, float64(rng.Intn(14)-7)))
	}
	for k := 0; k <= 6; k++ {
		for i := 0; i < 60_000; i++ {
			n := float64(rng.Int63n(2_000_000_000))
			check(n / pow10[k])
			check(math.Nextafter(n/pow10[k], 0))
		}
	}
	if checked < 1_000_000 {
		t.Fatalf("only %d values checked", checked)
	}
}

// TestWriterSplicesPartsInOrder: however the rows are spread over parts and
// Append calls — parts filled out of order, rows far longer than a segment —
// the text is EncodeBytes' and the body is sized as PhysicalBytes sizes it.
func TestWriterSplicesPartsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rel := randomRelation(rng, 4000)
	for i := 0; i < len(rel.Rows); i += 500 {
		rel.Rows[i][3] = Str(strings.Repeat("long ", 1+i*40)) // up to 700 KB: rows that outgrow any segment
	}
	rel.LogicalBytes = 12345
	want := rel.EncodeBytesOpts(forceSerial)

	w := NewWriter(Schema{})
	cuts := []int{0, 0, 1, 700, 700, 2500, len(rel.Rows)}
	parts := make([]*Part, len(cuts)-1)
	for i := range parts {
		parts[i] = w.Part()
	}
	for i := len(parts) - 1; i >= 0; i-- { // last range first, a batch at a time
		for lo := cuts[i]; lo < cuts[i+1]; lo += 64 {
			parts[i].Append(rel.Rows[lo:min(lo+64, cuts[i+1])])
		}
	}
	w.Append(nil)
	w.Schema, w.LogicalBytes = rel.Schema, rel.LogicalBytes // header fields may be set last
	if got := w.Bytes(); !bytes.Equal(got, want) || cap(got) != len(got) {
		t.Fatalf("spliced text differs from EncodeBytes (len %d cap %d, want %d)", len(got), cap(got), len(want))
	}
	if w.Rows() != len(rel.Rows) || w.BodyBytes() != rel.PhysicalBytes() {
		t.Errorf("writer holds %d rows / %d body bytes, relation %d / %d", w.Rows(), w.BodyBytes(), len(rel.Rows), rel.PhysicalBytes())
	}
	if empty := NewWriter(rel.Schema).Bytes(); !bytes.Equal(empty, New("e", rel.Schema).EncodeBytes()) {
		t.Errorf("an empty writer's text is %q", empty)
	}
}
