package relation

import (
	"bytes"
	"math"
	"math/rand"
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
// over random relations, before and after stamping, and across a decode of
// the encoder's own output (which caches widths from the text).
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
		trusted, err := openDecode("rnd", enc, len(rel.Rows))
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

// openDecode decodes enc the way the DFS does: opened as the encoder's own
// text holding rows rows, and drained.
func openDecode(name string, enc []byte, rows int) (*Relation, error) {
	e, err := Open(name, [][]byte{enc}, rows)
	if err != nil {
		return nil, err
	}
	return e.Materialize()
}

// TestOpenStampsNumbers pins that the trusted decode really caches widths
// (the point of it), and that the generic decode caches none.
func TestOpenStampsNumbers(t *testing.T) {
	rel := codecRelation(50)
	enc := rel.EncodeBytes()
	trusted, err := openDecode("t", enc, len(rel.Rows))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := DecodeBytes("t", enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trusted.Rows {
		for j, v := range trusted.Rows[i] {
			if v.Kind != KindString && v.w == 0 {
				t.Fatalf("Open: row %d col %d (%v) carries no width", i, j, v)
			}
			if plain.Rows[i][j].w != 0 {
				t.Fatalf("DecodeBytes: row %d col %d (%v) carries width %d", i, j, v, plain.Rows[i][j].w)
			}
		}
	}
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
// without cached widths. The unstamped walk's one allocation is its width
// memo; the stamped walk, what every sizing after the first costs, allocates
// nothing.
func BenchmarkPhysicalBytes(b *testing.B) {
	b.Run("unstamped", kernels.Bench)
	b.Run("stamped", kernels.Bench)
}

func physicalBytes(stamped bool) func(testing.TB) func(testing.TB) {
	return func(testing.TB) func(testing.TB) {
		rel := codecRelation(20000)
		if stamped {
			rel.StampPhysicalBytes()
		}
		return func(testing.TB) { sizeSink = rel.PhysicalBytes() }
	}
}
