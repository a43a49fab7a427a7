package relation

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"unsafe"
)

// TestValueSizeUnchanged pins that the cached width lives in Value's padding:
// a wider Value would move every allocation and heap figure in the repo.
func TestValueSizeUnchanged(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 40", got)
	}
}

// checkTextLen asserts TextLen is exact before and after stamping — with no
// memo, through a cold one and through one that has seen the value — and that
// stamping changes nothing else about the value.
func checkTextLen(t *testing.T, v Value) {
	t.Helper()
	want := len(v.AppendText(nil))
	if got := v.TextLen(); got != want {
		t.Fatalf("%v: TextLen() = %d before stamping, want %d", v, got, want)
	}
	var warm WidthMemo
	Row{v}.StampEncodedLen(&warm)
	var s Value
	for _, m := range []*WidthMemo{nil, {}, &warm} {
		row := Row{v}
		if got := row.StampEncodedLen(m); got != int64(want)+1 {
			t.Fatalf("%v: StampEncodedLen() = %d, want %d", v, got, want+1)
		}
		s = row[0]
		if v.Kind != KindString && int(s.w) != want {
			t.Fatalf("%v: cached width %d, want %d", v, s.w, want)
		}
	}
	if got := s.TextLen(); got != want {
		t.Fatalf("%v: TextLen() = %d after stamping, want %d", v, got, want)
	}
	if !bytes.Equal(s.AppendText(nil), v.AppendText(nil)) || s.Kind != v.Kind {
		t.Fatalf("%v: stamping changed the value to %v", v, s)
	}
}

// TestWidthMemoIsExact sizes rows through one long-lived memo — random
// floats, floats that evict each other from one slot, Ints sitting in a float
// column, and the renderings strconv special-cases — and checks every width
// it stamps against the text, and the row's size against what a cold memo
// and no memo give.
func TestWidthMemoIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	vals := []Value{
		Int(999999), Int(1000000), Int(-1234567), Int(math.MinInt64),
		Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001)), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(0), Float(math.Copysign(0, -1)), Float(5e-324), Float(2.2250738585072014e-308), Float(0.15000000000000002),
	}
	// Floats that share a slot with 0.1, met again and again.
	clash := []Value{Float(0.1)}
	for len(clash) < 8 {
		if bits := rng.Uint64(); widthSlot(bits) == widthSlot(math.Float64bits(0.1)) {
			clash = append(clash, Float(math.Float64frombits(bits)))
		}
	}
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0:
			vals = append(vals, clash[rng.Intn(len(clash))])
		case 1:
			vals = append(vals, Float(float64(rng.Intn(200))/8)) // few distinct: mostly hits
		default:
			vals = append(vals, Float(math.Float64frombits(rng.Uint64())))
		}
	}
	var memo WidthMemo
	for i := 0; i+3 <= len(vals); i++ {
		row := Row{vals[i], Str("s"), vals[i+1], vals[i+2]}
		want := row.Clone().EncodedLen()
		if got := row.Clone().StampEncodedLen(&WidthMemo{}); got != want {
			t.Fatalf("%v: %d through a cold memo, %d without one", row, got, want)
		}
		if got := row.StampEncodedLen(&memo); got != want {
			t.Fatalf("%v: %d through the warm memo, %d without one", row, got, want)
		}
		if err := CheckWidths(&Relation{Rows: []Row{row}}); err != nil {
			t.Fatal(err)
		}
	}
}

func FuzzTextLen(f *testing.F) {
	ints := []int64{0, 1, -1, 9, 10, 99, 100, 9999, 10000, 99999999, 100000000, 999999, 1000000, math.MinInt64, math.MaxInt64}
	floats := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		999999, 1000000, // 'g' switches to exponent form at 1e6…
		1e21, 1e-5, 0.0001, // …and below 1e-4
		5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, // subnormal, widest renderings
		0.15000000000000002, 0.21276595744680854, // PageRank-style 17-digit values
		math.MaxFloat64, -math.MaxFloat64,
		// floatTextLen's edges: the largest floats it must decline, the
		// least it must count, and the powers of two whose interval is
		// lopsided.
		math.Nextafter(1e-4, 0), math.Nextafter(1e6, 0), -math.Nextafter(1e6, 0),
		0x1p-14, math.Nextafter(0x1p-14, 0), 0x1p20, math.Nextafter(0x1p20, 0),
	}
	for i, x := range ints {
		f.Add(x, floats[i%len(floats)])
	}
	for i, x := range floats {
		f.Add(ints[i%len(ints)], x)
	}
	f.Fuzz(func(t *testing.T, i int64, x float64) {
		checkTextLen(t, Int(i))
		checkTextLen(t, Float(x))
		checkTextLen(t, Str(Float(x).String()))
	})
}

// checkFloatTextLen fails unless floatTextLen(f) is the length of strconv's
// shortest %g rendering of f, which it must report for every normal f with
// 1e-4 <= |f| < 1e6 and may decline elsewhere. buf is scratch, returned.
func checkFloatTextLen(t testing.TB, f float64, buf []byte) []byte {
	buf = strconv.AppendFloat(buf[:0], f, 'g', -1, 64)
	n, ok := floatTextLen(f)
	switch a := math.Abs(f); {
	case ok && n != len(buf):
		t.Fatalf("floatTextLen(%s) = %d, want %d (bits %#x)", buf, n, len(buf), math.Float64bits(f))
	case !ok && a >= 1e-4 && a < 1e6:
		t.Fatalf("floatTextLen(%s) declines a float in [1e-4, 1e6) (bits %#x)", buf, math.Float64bits(f))
	}
	return buf
}

// TestFloatTextLenMatchesStrconv holds floatTextLen to strconv over random
// bits, uniform [0,1) values, decimals across its range, every power of two
// and ten in it with their neighbours, and the floats just outside.
func TestFloatTextLenMatchesStrconv(t *testing.T) {
	var buf []byte
	checked := 0
	check := func(f float64) {
		buf = checkFloatTextLen(t, f, buf)
		checked++
	}
	// Every exponent floatTextLen covers: s stays in the 5^s table, and the
	// shift (by at least 24 bits) strips more than a bound's one trailing
	// zero bit, so no bound is ever an integer once scaled and which of them
	// round-half-even admits never matters.
	for x := -14; x <= 19; x++ {
		if s, sh := decimalScale(x); s < 11 || s > 21 || sh < 24 || sh > 47 {
			t.Fatalf("decimalScale(%d) = %d, %d", x, s, sh)
		}
	}
	steps := func(f float64, n int) {
		check(f)
		for i, up, down := 0, f, f; i < n; i++ {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0)
			check(up)
			check(down)
		}
	}
	for x := -14; x <= 20; x++ { // the lopsided interval below each power of two
		steps(math.Ldexp(1, x), 1)
		steps(-math.Ldexp(1, x), 1)
	}
	for k := -4; k <= 6; k++ {
		steps(math.Pow10(k), 3)
		steps(-math.Pow10(k), 3)
	}
	// Outside the range, by a few ulps.
	steps(math.Nextafter(1e-4, 0), 8)
	steps(math.Nextafter(0x1p-14, 0), 8)
	steps(math.Nextafter(1e6, 0), 8)
	steps(-math.Nextafter(1e6, 0), 8)
	// Short dyadic decimals — the bounds nearest a short decimal — and the
	// odd and even mantissas beside them.
	for n := 1.0; n < 1e6; n = n*3 + 1 {
		for j := 0; j <= 14; j++ {
			steps(math.Ldexp(n, -j), 2)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 600_000; i++ {
		// Random bits at every exponent of the range and two either side.
		b := rng.Uint64()&^(0x7ff<<52) | uint64(1023-16+rng.Intn(38))<<52
		check(math.Float64frombits(b))
		check(math.Float64frombits(rng.Uint64()))
		check(rng.Float64())
		// A decimal of 1–17 digits scaled across 1e-4..1e6.
		d := 1 + rng.Intn(17)
		m := float64(rng.Int63n(int64(tens[d])))
		if e := d - 6 + rng.Intn(10); e >= 0 {
			check(m / math.Pow10(e))
		} else {
			check(m * math.Pow10(-e))
		}
	}
	if checked < 2_000_000 {
		t.Fatalf("only %d values checked", checked)
	}
}

// FuzzFloatTextLen explores every exponent and mantissa directly: wherever
// floatTextLen counts, it counts strconv's bytes.
func FuzzFloatTextLen(f *testing.F) {
	for _, x := range []float64{1e-4, math.Nextafter(1e-4, 0), math.Nextafter(1e6, 0), 1e6, 0x1p-14, 0x1p20,
		0.1, 0.15000000000000002, 0.21276595744680854, 1.0 / 3, 999999.9999999999, -12345.678} {
		f.Add(math.Float64bits(x))
	}
	var buf []byte
	f.Fuzz(func(t *testing.T, bits uint64) {
		buf = checkFloatTextLen(t, math.Float64frombits(bits), buf)
	})
}

// TestIntTextLenBoundaries walks every power of ten and its neighbours.
func TestIntTextLenBoundaries(t *testing.T) {
	p := int64(1)
	for d := 1; d <= 18; d++ {
		p *= 10
		for _, i := range []int64{p - 1, p, p + 1, -(p - 1), -p, -(p + 1)} {
			checkTextLen(t, Int(i))
		}
	}
}

// randomRelation mixes ints, floats and strings, including values whose
// column kind differs from their own (ARITH over an int column and an int
// literal declares a float result but computes an Int).
func randomRelation(rng *rand.Rand, rows int) *Relation {
	r := New("rnd", NewSchema("i:int", "f:float", "g:float", "s:string"))
	words := []string{"", "a", "tab-free text", "x:y", "0.5"}
	for k := 0; k < rows; k++ {
		var g Value
		switch rng.Intn(4) {
		case 0:
			g = Int(rng.Int63n(1 << uint(rng.Intn(40)+1))) // Int in a float column
		case 1:
			g = Float(float64(rng.Intn(4000000) - 2000000))
		default:
			g = Float(math.Float64frombits(rng.Uint64()))
			if math.IsNaN(g.F) {
				g = Float(rng.NormFloat64())
			}
		}
		r.MustAppend(Row{
			Int(rng.Int63n(1<<uint(rng.Intn(62)+1)) - rng.Int63n(1<<uint(rng.Intn(62)+1))),
			Float(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))),
			g,
			Str(words[rng.Intn(len(words))]),
		})
	}
	return r
}

// tsvBody strips Encode's two header lines.
func tsvBody(t *testing.T, enc []byte) []byte {
	t.Helper()
	for i := 0; i < 2; i++ {
		_, rest, ok := bytes.Cut(enc, []byte{'\n'})
		if !ok {
			t.Fatal("encoded stream has no header")
		}
		enc = rest
	}
	return enc
}

// TestPhysicalBytesIsTSVBodyLength is the definition of PhysicalBytes, held
// over random relations, before and after stamping, and across a parse of the
// text and a read of the stored stream (which caches widths from the stream).
func TestPhysicalBytesIsTSVBodyLength(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		rel := randomRelation(rng, rng.Intn(60))
		enc := rel.EncodeBytes()
		want := int64(len(tsvBody(t, enc)))
		if got := rel.PhysicalBytes(); got != want {
			t.Fatalf("trial %d: PhysicalBytes() = %d, TSV body is %d bytes", trial, got, want)
		}
		if got := rel.StampPhysicalBytes(); got != want {
			t.Fatalf("trial %d: StampPhysicalBytes() = %d, want %d", trial, got, want)
		}
		if got := rel.PhysicalBytes(); got != want {
			t.Fatalf("trial %d: PhysicalBytes() = %d after stamping, want %d", trial, got, want)
		}
		if err := CheckWidths(rel); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rel.EncodeBytes(), enc) {
			t.Fatalf("trial %d: stamping changed the encoding", trial)
		}

		// The decoded relation re-encodes to its own canonical body (an Int
		// that sat in a float column comes back as a Float and may render
		// differently), and both decoders must size it identically.
		plain, err := DecodeBytes("rnd", enc)
		if err != nil {
			t.Fatal(err)
		}
		trusted, err := openDecode("rnd", rel.EncodeColumnar(CodecOptions{}), len(rel.Rows))
		if err != nil {
			t.Fatal(err)
		}
		canon := int64(len(tsvBody(t, plain.EncodeBytes())))
		if got := plain.PhysicalBytes(); got != canon {
			t.Fatalf("trial %d: DecodeBytes sizes %d, canonical body is %d", trial, got, canon)
		}
		if got := trusted.PhysicalBytes(); got != canon {
			t.Fatalf("trial %d: Open sizes %d, canonical body is %d", trial, got, canon)
		}
		if err := CheckWidths(trusted); err != nil {
			t.Fatalf("trial %d: Open: %v", trial, err)
		}
	}
}

// openDecode decodes enc the way the DFS does: opened as a Writer's own
// stream holding rows rows, and drained.
func openDecode(name string, enc []byte, rows int) (*Relation, error) {
	e, err := Open(name, [][]byte{enc}, rows)
	if err != nil {
		return nil, err
	}
	return e.Materialize()
}

// TestForeignTSVSizesCanonically feeds DecodeBytes text no encoder of ours
// wrote. The values parse, but the field lengths are not their widths: the
// relation must size to its re-encoded body.
func TestForeignTSVSizesCanonically(t *testing.T) {
	foreign := "#schema\ti:int\tf:float\n#logical\t0\n" +
		"+7\t1.50\n" +
		"007\t1e3\n" +
		"-0\t.5\n" +
		"12\t100000000\n" +
		"0\t+0.25E+00\n"
	rel, err := DecodeBytes("foreign", []byte(foreign))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(tsvBody(t, rel.EncodeBytes())))
	if want >= int64(len(foreign)) {
		t.Fatalf("canonical body %d bytes is not shorter than the foreign text", want)
	}
	if got := rel.PhysicalBytes(); got != want {
		t.Fatalf("PhysicalBytes() = %d, canonical body is %d bytes", got, want)
	}
	if err := CheckWidths(rel); err != nil {
		t.Fatal(err)
	}
}

var sizeSink int64

// BenchmarkPhysicalBytes sizes a 20k-row int/float/string relation with and
// without cached widths, and one whose floats are full-precision (16–17
// digits, all distinct) without them. No walk allocates: sizing a relation
// keeps no width memo, and the stamped walk, what every sizing after the
// first costs, reads one byte per number.
func BenchmarkPhysicalBytes(b *testing.B) {
	b.Run("unstamped", kernels.Bench)
	b.Run("stamped", kernels.Bench)
	b.Run("full-precision", kernels.Bench)
}

func physicalBytes(build func(rows int) *Relation, stamped bool) func(testing.TB) func(testing.TB) {
	return func(testing.TB) func(testing.TB) {
		rel := build(20000)
		if stamped {
			rel.StampPhysicalBytes()
		}
		return func(testing.TB) { sizeSink = rel.PhysicalBytes() }
	}
}

// fullPrecisionRelation is codecRelation with each float a distinct ratio,
// 1000/(i+7), whose shortest text has 16 or 17 digits, as PageRank's ranks and
// ratios do, where codecRelation's are short decimals.
func fullPrecisionRelation(rows int) *Relation {
	r := codecRelation(rows)
	for i, row := range r.Rows {
		row[1] = Float(1e3 / float64(i+7))
	}
	return r
}
