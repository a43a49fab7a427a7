package relation

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// float column — integers of 6, 7 and 8 digits held as Ints, which a user's
// relation may hold there (see floatColumnWidth).
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

// readAll pulls src dry, copying each batch's rows out of its vectors (a
// reader recycles them) and running CheckWidths over every batch.
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
				t.Fatalf("Next after exhaustion = %d rows, %v", again.N, err)
			}
			return rows
		}
		got := b.AppendRows(nil)
		if err := CheckWidths(&Relation{Name: "batch", Rows: got}); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, got...)
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

// TestRowErrorsNameTheRelation pins the arity and parse checks of the text
// parser.
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
		for _, stored := range []bool{false, true} {
			got, err := DecodeBytes(rel.Name, rel.EncodeBytes())
			if stored {
				got, err = openDecode(rel.Name, rel.EncodeColumnar(CodecOptions{}), len(rel.Rows))
			}
			if err != nil {
				t.Fatal(err)
			}
			sameText(t, rel.Name, got.Rows, rel.Rows)
		}
		e, err := Open(rel.Name, chop(rel.EncodeColumnar(CodecOptions{}), 1), len(rel.Rows))
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
	ints := &Relation{Name: "n", Schema: NewSchema("i:int")}
	floats := &Relation{Name: "n", Schema: NewSchema("f:float")}
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
// and beside it the encoder allocates at most one object — the width memo that
// sizes the rows — however many rows and bytes it renders.
func TestEncodeBytesSizedOnce(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 5000} {
		if enc := mixedRelation(n).EncodeBytes(); cap(enc) != len(enc) {
			t.Errorf("%d rows: %d bytes in a buffer of %d", n, len(enc), cap(enc))
		}
	}
	for _, n := range []int{5000, 50000} {
		big := mixedRelation(n)
		size := len(big.EncodeBytes())
		if got, limit := testing.AllocsPerRun(10, func() { _ = big.EncodeBytes() }), 2.0; got > limit { // the buffer and the memo
			t.Errorf("encode of %d rows (%d bytes): %v allocations, want at most %v", n, size, got, limit)
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

// TestOpenRefusesText: the DFS opens only the stored format, so text — whole,
// or cut into blocks anywhere — is refused before a row is read, naming the
// relation.
func TestOpenRefusesText(t *testing.T) {
	text := mixedRelation(40).EncodeBytes()
	for _, size := range []int{0, 1, 7, 64} {
		if _, err := Open("m", chop(text, size), 40); err == nil || err.Error() != "relation m: not a columnar stream" {
			t.Errorf("block size %d: %v", size, err)
		}
	}
}

// FuzzDecodeBytes feeds the text parser real renderings, cut and mutated by
// the fuzzer: an error, or a relation that caches no false width and whose own
// rendering parses back to the same rows; never a panic, and never more memory
// than FuzzColumnarStream allows the columnar decoder.
func FuzzDecodeBytes(f *testing.F) {
	blanks := New("blanks", NewSchema("s:string"))
	blanks.Rows = []Row{{Str("")}, {Str("x")}, {Str("")}}
	none := New("none", Schema{})
	none.Rows = make([]Row, 3)
	for _, rel := range []*Relation{edgeRelation(), mixedRelation(40), blanks, none} {
		text := rel.EncodeBytes()
		f.Add(text)
		f.Add(text[:len(text)/2])
	}
	// A wide schema over blank lines: rows are not sized by lines × columns.
	f.Add([]byte("#schema" + strings.Repeat("\ta:int", 300) + "\n#logical\t0\n" + strings.Repeat("\n", 3000)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rel, err := DecodeBytes("fz", data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 200*uint64(len(data))+64<<10 {
			t.Fatalf("%d bytes allocated decoding %d", grew, len(data))
		}
		if err != nil {
			return
		}
		if err := CheckWidths(rel); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeBytes("fz", rel.EncodeBytes())
		if err != nil {
			t.Fatalf("the rendering does not parse: %v", err)
		}
		if again.Fingerprint() != rel.Fingerprint() || !again.Schema.Equal(rel.Schema) || again.NumRows() != rel.NumRows() {
			t.Fatalf("parsed back to %s, %d rows; was %s, %d rows", again.Schema, again.NumRows(), rel.Schema, rel.NumRows())
		}
	})
}
