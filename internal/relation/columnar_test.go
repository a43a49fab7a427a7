package relation

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// rowsEqual compares two row sets for exact (kind-and-content) equality.
func rowsEqual(t *testing.T, got, want []Row, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d arity %d, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !got[i][j].Equal(want[i][j]) {
				t.Fatalf("%s: row %d col %d: %#v != %#v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// adversarialRelation holds the value shapes the codecs have historically
// disagreed on: empty strings, separators inside strings, negative and
// extreme (NaN-free) floats, negative and boundary ints.
func adversarialRelation(tsvSafe bool) *Relation {
	r := New("adv", NewSchema("i:int", "f:float", "s:string"))
	strs := []string{"", "plain", "with:colon", "  padded  ", "#schema", "0", "-7.25"}
	if !tsvSafe {
		strs = append(strs, "tab\there", "new\nline", "\t", "\n", "trailing\t")
	}
	ints := []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), -0.25, 1e300, -1e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1)}
	for _, s := range strs {
		for _, i := range ints {
			for _, f := range floats {
				r.MustAppend(Row{Int(i), Float(f), Str(s)})
			}
		}
	}
	return r
}

// TestColumnarRoundTripMatchesTSV proves columnar Encode→Decode is
// row-identical to TSV Encode→Decode for every TSV-representable
// adversarial value.
func TestColumnarRoundTripMatchesTSV(t *testing.T) {
	t.Parallel()
	r := adversarialRelation(true)
	r.LogicalBytes = 12345

	viaTSV, err := DecodeBytes("adv", r.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	enc := r.EncodeColumnar(CodecOptions{})
	if !bytes.HasPrefix(enc, columnarMagic[:]) {
		t.Fatal("columnar stream does not start with the magic")
	}
	viaCol, err := DecodeBytes("adv", enc)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, viaCol.Rows, viaTSV.Rows, "columnar vs TSV round trip")
	if viaCol.LogicalBytes != viaTSV.LogicalBytes {
		t.Fatalf("logical bytes %d != %d", viaCol.LogicalBytes, viaTSV.LogicalBytes)
	}
	if !viaCol.Schema.Equal(viaTSV.Schema) {
		t.Fatalf("schema %s != %s", viaCol.Schema, viaTSV.Schema)
	}
}

// TestColumnarRoundTripExact proves the columnar codec round-trips values
// the TSV format cannot even represent (tabs and newlines inside strings).
func TestColumnarRoundTripExact(t *testing.T) {
	t.Parallel()
	r := adversarialRelation(false)
	dec, err := DecodeBytes("adv", r.EncodeColumnar(CodecOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, dec.Rows, r.Rows, "columnar exact round trip")
}

// TestColumnarParallelMatchesSerial: a pipeline split in two halves fills a
// part per half from its own goroutine, and parts cut their own row groups,
// so the streams differ from one part's in where groups end and in nothing a
// reader can see — the same rows, the same text size.
func TestColumnarParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	r := codecRelation(5000)
	mid := (len(r.Rows) + 1) / 2
	var decoded [2]*Relation
	for i, halves := range []bool{false, true} {
		w := NewColumnarWriter(r.Schema)
		if halves {
			var wg sync.WaitGroup
			for _, rows := range [][]Row{r.Rows[:mid], r.Rows[mid:]} {
				wg.Add(1)
				go func(p *Part) {
					defer wg.Done()
					p.Append(rows)
				}(w.Part()) // parts open in row order
			}
			wg.Wait()
		} else {
			w.Append(r.Rows)
		}
		if w.Rows() != len(r.Rows) || w.BodyBytes() != r.PhysicalBytes() {
			t.Fatalf("writer %d holds %d rows, %d text bytes; want %d, %d", i, w.Rows(), w.BodyBytes(), len(r.Rows), r.PhysicalBytes())
		}
		var err error
		if decoded[i], err = openDecode("t", w.Bytes(), len(r.Rows)); err != nil {
			t.Fatal(err)
		}
	}
	sameRows(t, "two halves vs one part", decoded[1].Rows, decoded[0].Rows)
}

// TestColumnarEmptyRelation round-trips a zero-row relation.
func TestColumnarEmptyRelation(t *testing.T) {
	t.Parallel()
	r := New("empty", NewSchema("a:int", "b:string"))
	r.LogicalBytes = 99
	dec, err := DecodeBytes("empty", r.EncodeColumnar(CodecOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Rows) != 0 || dec.LogicalBytes != 99 || !dec.Schema.Equal(r.Schema) {
		t.Fatalf("empty round trip: %d rows, logical %d, schema %s", len(dec.Rows), dec.LogicalBytes, dec.Schema)
	}
}

// TestColumnarSmallerThanTSV sanity-checks the size win that motivates the
// codec: on the mixed-type codec relation the columnar stream must encode
// to well under the TSV size (the CI streaming benchmark gates the exact
// ratio).
func TestColumnarSmallerThanTSV(t *testing.T) {
	t.Parallel()
	r := codecRelation(5000)
	tsv := len(r.EncodeBytes())
	col := len(r.EncodeColumnar(CodecOptions{}))
	if col >= tsv {
		t.Fatalf("columnar %dB >= TSV %dB", col, tsv)
	}
}

// TestColumnarTruncated checks corrupted streams fail instead of panicking.
func TestColumnarTruncated(t *testing.T) {
	t.Parallel()
	r := codecRelation(100)
	enc := r.EncodeColumnar(CodecOptions{})
	for _, cut := range []int{5, 7, len(enc) / 2, len(enc) - 1} {
		if cut >= len(enc) {
			continue
		}
		if _, err := DecodeBytes("t", enc[:cut]); err == nil {
			t.Fatalf("decoding %d/%d bytes succeeded", cut, len(enc))
		}
	}
}

// FuzzColumnarRoundTrip fuzzes single-row round trips: the columnar codec
// must reproduce the value exactly, and must agree with the TSV round trip
// whenever the string is TSV-representable. NaN floats are skipped (they
// are unequal to themselves under Value.Equal, and the pipeline never
// produces them).
func FuzzColumnarRoundTrip(f *testing.F) {
	f.Add(int64(0), 0.0, "")
	f.Add(int64(-1), -0.25, "with:colon")
	f.Add(int64(math.MaxInt64), math.MaxFloat64, "tab\there")
	f.Add(int64(math.MinInt64), math.SmallestNonzeroFloat64, "new\nline")
	f.Add(int64(42), math.Inf(-1), "#schema")
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string) {
		if math.IsNaN(fl) {
			t.Skip("NaN is not a pipeline value")
		}
		r := New("fz", NewSchema("i:int", "f:float", "s:string"))
		r.MustAppend(Row{Int(i), Float(fl), Str(s)})
		dec, err := DecodeBytes("fz", r.EncodeColumnar(CodecOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, dec.Rows, r.Rows, "columnar")
		if !strings.ContainsAny(s, "\t\n\r") {
			viaTSV, err := DecodeBytes("fz", r.EncodeBytes())
			if err != nil {
				t.Fatal(err)
			}
			rowsEqual(t, dec.Rows, viaTSV.Rows, "columnar vs TSV")
		}
	})
}

// viaCodec writes rel through a Writer of the given codec, cuts the stream
// into blocks of size bytes and opens it as the DFS does.
func viaCodec(t *testing.T, rel *Relation, codec Codec, size int) *Encoded {
	t.Helper()
	w := NewWriter(rel.Schema)
	if codec == CodecColumnar {
		w = NewColumnarWriter(rel.Schema)
	}
	w.LogicalBytes = rel.LogicalBytes
	for lo := 0; lo < len(rel.Rows); lo += 700 { // batches that do not divide a group
		w.Part().Append(rel.Rows[lo:min(lo+700, len(rel.Rows))])
	}
	e, err := Open(rel.Name, chop(w.Bytes(), size), w.Rows())
	if err != nil {
		t.Fatal(err)
	}
	if e.LogicalBytes != rel.LogicalBytes || !e.Schema.Equal(rel.Schema) {
		t.Fatalf("%s header: logical %d, schema %s", codec, e.LogicalBytes, e.Schema)
	}
	return e
}

// edgeRelation holds the cells the two codecs could disagree on: Ints of six
// and of seven and more digits in a float column, signed zero, NaN, the
// infinities, subnormals, and numbers whose text is long.
func edgeRelation() *Relation {
	r := New("edge", NewSchema("i:int", "f:float", "s:string"))
	for i, f := range []Value{
		Int(999999), Int(-999999), Int(1000000), Int(-1000000), Int(123456789012), Int(0), Int(-7),
		Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.SmallestNonzeroFloat64), Float(-2.2250738585072009e-308), Float(math.MaxFloat64),
		Float(999999), Float(1e6), Float(1234567), Float(0.001), Float(-123456.789), Float(1e21), Float(1e-5),
	} {
		r.MustAppend(Row{Int(int64(i) * 1_000_000_007), f, Str(strings.Repeat("s", i%4))})
	}
	r.LogicalBytes = 77
	return r
}

// TestColumnarReadsWhatTSVReads is the codec's contract: a trusted read of a
// columnar stream yields the cells — values and cached widths, as structs — a
// trusted read of the TSV rendering of the same rows yields, the same meter,
// and widths that are true, whatever the block size, batch size and row
// range; and its writer reports the text size the TSV writer does.
func TestColumnarReadsWhatTSVReads(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(21))
	empty := New("empty", NewSchema("a:int", "b:float", "c:string"))
	none := New("none", Schema{})
	none.Rows = make([]Row, 2500)
	for _, rel := range []*Relation{edgeRelation(), mixedRelation(2500), randomRelation(rng, 1100), empty, none} {
		n := len(rel.Rows)
		want, err := viaCodec(t, rel, CodecTSV, 0).Materialize()
		if err != nil {
			t.Fatal(err)
		}
		canon := want.PhysicalBytes()
		for _, size := range []int{0, 1, 7, 64, 4096} {
			whole := viaCodec(t, rel, CodecColumnar, size)
			got, err := whole.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("%s block=%d materialized", rel.Name, size), got.Rows, want.Rows)
			if err := CheckWidths(got); err != nil {
				t.Fatal(err)
			}
			if whole.PhysicalBytes() != canon {
				t.Fatalf("%s block=%d: meter %d, the TSV reader's %d", rel.Name, size, whole.PhysicalBytes(), canon)
			}
			if size == 1 && n > 100 {
				continue // the ranges below would take a while a byte at a time
			}
			for _, batch := range []int{1, 3, 1000, 1024, 4000} {
				if batch < 1000 && n > 100 && size != 7 {
					continue
				}
				// Ranges that start and end inside groups, read out of order.
				cuts := []int{0, n / 3, n / 3, min(n, 1023), min(n, 1025), min(n, 2047), n}
				sort.Ints(cuts)
				e := viaCodec(t, rel, CodecColumnar, size)
				rows := make([][]Row, len(cuts)-1)
				for i := len(rows) - 1; i >= 0; i-- {
					rows[i] = readAll(t, e.Reader(cuts[i], cuts[i+1], batch, i%2 == 0))
				}
				label := fmt.Sprintf("%s block=%d batch=%d", rel.Name, size, batch)
				sameRows(t, label, slices.Concat(rows...), want.Rows)
				if e.PhysicalBytes() != canon {
					t.Fatalf("%s: meter %d, the TSV reader's %d", label, e.PhysicalBytes(), canon)
				}
			}
		}
		tsv, col := NewWriter(rel.Schema), NewColumnarWriter(rel.Schema)
		tsv.Append(rel.Rows)
		col.Append(rel.Rows)
		if col.BodyBytes() != tsv.BodyBytes() || col.TextBytes() != int64(len(tsv.Bytes())) || col.Rows() != n {
			t.Fatalf("%s: columnar writer sizes its text at %d (+header %d), the TSV writer wrote %d (%d)",
				rel.Name, col.BodyBytes(), col.TextBytes(), tsv.BodyBytes(), len(tsv.Bytes()))
		}
	}
}

// TestColumnarGroupCutAnywhere cuts a two-group stream in two at every byte
// offset: header, group headers and bodies all stitch.
func TestColumnarGroupCutAnywhere(t *testing.T) {
	t.Parallel()
	rel := edgeRelation()
	w := NewColumnarWriter(rel.Schema)
	w.Part().Append(rel.Rows[:9])
	w.Part().Append(rel.Rows[9:])
	data := w.Bytes()
	want, err := openDecode("edge", data, len(rel.Rows))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(data); cut++ {
		e, err := Open("edge", [][]byte{data[:cut], {}, data[cut:]}, len(rel.Rows))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		sameRows(t, fmt.Sprintf("cut at %d", cut), readAll(t, e.Reader(0, len(rel.Rows), 4, false)), want.Rows)
	}
}

// TestColumnarKeepsWhatTSVMangles: a string holding a tab and a newline
// crosses a job boundary intact in this codec; the same row through TSV is two
// broken lines.
func TestColumnarKeepsWhatTSVMangles(t *testing.T) {
	t.Parallel()
	rel := New("s", NewSchema("a:int", "s:string"))
	rel.MustAppend(Row{Int(1), Str("tab\there\nand a newline")})
	got, err := viaCodec(t, rel, CodecColumnar, 7).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, got.Rows, rel.Rows, "columnar")
	if _, err := viaCodec(t, rel, CodecTSV, 7).Materialize(); err == nil {
		t.Fatal("the TSV rendering of a string with a tab and a newline read back as one row")
	}
}

// TestOpenedGroupsMustMatchTheirRowCount is TestOpenedTextMustMatchItsRowCount
// for row groups.
func TestOpenedGroupsMustMatchTheirRowCount(t *testing.T) {
	t.Parallel()
	rel := mixedRelation(2100)
	enc := rel.EncodeColumnar(CodecOptions{})
	for _, c := range []struct {
		rows int
		want string
	}{{2099, "continues past the 2099 rows"}, {1024, "continues past the 1024 rows"}, {2101, "ends short of the 2101 rows"}} {
		e, err := Open("m", chop(enc, 100), c.rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Materialize(); err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "relation m") {
			t.Errorf("Materialize with %d recorded rows: %v", c.rows, err)
		}
		e, _ = Open("m", chop(enc, 100), c.rows)
		src, err := e.Reader(c.rows/2, c.rows, 300, false), error(nil)
		for b := (Batch{Rows: make([]Row, 1)}); err == nil && !b.Empty(); {
			b, err = src.Next()
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("last range with %d recorded rows: %v", c.rows, err)
		}
	}
}

// TestColumnarRowCountIsCheckedBeforeItSizesAnything is the kind of stream
// that killed the serve daemon — one int column, 2^40 rows declared, no bytes
// behind them — and its variants: each is an error, found without allocating
// by the count.
func TestColumnarRowCountIsCheckedBeforeItSizesAnything(t *testing.T) { // not parallel: it reads the process's allocation counter
	head := NewColumnarWriter(NewSchema("a:int")).Bytes()
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, data := range map[string][]byte{
		"rows beyond the group size": append(append(slices.Clone(head), huge...), 0),
		"body beyond the stream":     append(append(append(slices.Clone(head), 1), huge...), 0),
		"rows beyond the body":       append(slices.Clone(head), 200, 1, 3, 1, 0),
		"no columns, rows beyond it": append(NewColumnarWriter(Schema{}).Bytes(), 200, 7, 0),
		"an empty group":             append(slices.Clone(head), 0, 0),
		"magic and nothing else":     slices.Clone(columnarMagic[:]),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rel, err := DecodeBytes("hostile", data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded %d rows from %d bytes", name, rel.NumRows(), len(data))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: %d bytes allocated to reject %d", name, grew, len(data))
		}
	}
}

// FuzzColumnarStream feeds the untrusted decoder real encodings, cut and
// bit-flipped by the fuzzer: an error, or a relation whose encoding decodes to
// itself and re-encodes to the same bytes; never a panic, and never more
// memory than a small multiple of the input (a row costs its stream a byte,
// and a decoded row of one column 64). The input itself need not be what the
// relation re-encodes to: a width byte is not taken on a foreign stream's
// word, and a varint may be padded.
func FuzzColumnarStream(f *testing.F) {
	none := New("none", Schema{})
	none.Rows = make([]Row, 3)
	for _, rel := range []*Relation{edgeRelation(), mixedRelation(40), adversarialRelation(false), none, New("empty", NewSchema("a:int"))} {
		enc := rel.EncodeColumnar(CodecOptions{})
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		flipped := slices.Clone(enc)
		flipped[len(flipped)*2/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add(binary.AppendUvarint(NewColumnarWriter(NewSchema("a:int")).Bytes(), 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rel, err := DecodeColumnar("fz", data, CodecOptions{})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 200*uint64(len(data))+64<<10 {
			t.Fatalf("%d bytes allocated decoding %d", grew, len(data))
		}
		if err != nil {
			return
		}
		enc := rel.EncodeColumnar(CodecOptions{})
		again, err := DecodeColumnar("fz", enc, CodecOptions{})
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		sameRows(t, "decoded again", again.Rows, rel.Rows)
		if !again.Schema.Equal(rel.Schema) || again.LogicalBytes != rel.LogicalBytes {
			t.Fatalf("header changed: %s %d, was %s %d", again.Schema, again.LogicalBytes, rel.Schema, rel.LogicalBytes)
		}
		if !bytes.Equal(again.EncodeColumnar(CodecOptions{}), enc) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
