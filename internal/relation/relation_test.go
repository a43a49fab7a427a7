package relation

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindInt, KindFloat, KindString} {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) succeeded, want error")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Int(-7), "-7"},
		{Float(2.5), "2.5"},
		{Str("hello"), "hello"},
		{Str(""), ""},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	vals := []Value{Int(0), Int(123456789), Int(-1), Float(0.125), Float(-3e10), Str("x y z")}
	for _, v := range vals {
		got, err := ParseValue(v.Kind, v.String())
		if err != nil {
			t.Fatalf("ParseValue(%v): %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	if _, err := ParseValue(KindInt, "abc"); err == nil {
		t.Error("ParseValue(int, abc) succeeded")
	}
	if _, err := ParseValue(KindFloat, "abc"); err == nil {
		t.Error("ParseValue(float, abc) succeeded")
	}
}

func TestCompareCoercion(t *testing.T) {
	if Int(2).Compare(Float(2.0)) != 0 {
		t.Error("Int(2) should compare equal to Float(2.0)")
	}
	if Int(2).Compare(Float(2.5)) != -1 {
		t.Error("Int(2) should be < Float(2.5)")
	}
	if Str("a").Compare(Int(999)) != 1 {
		t.Error("strings sort after numbers")
	}
	if Str("a").Compare(Str("b")) != -1 {
		t.Error("string ordering broken")
	}
}

func TestArithmetic(t *testing.T) {
	if got := Int(3).Add(Int(4)); !got.Equal(Int(7)) {
		t.Errorf("3+4 = %v", got)
	}
	if got := Int(3).Mul(Float(0.5)); !got.Equal(Float(1.5)) {
		t.Errorf("3*0.5 = %v", got)
	}
	if got := Int(10).Sub(Int(4)); !got.Equal(Int(6)) {
		t.Errorf("10-4 = %v", got)
	}
	if got := Float(1).Div(Float(4)); !got.Equal(Float(0.25)) {
		t.Errorf("1/4 = %v", got)
	}
	if got := Float(1).Div(Int(0)); !got.Equal(Float(0)) {
		t.Errorf("div by zero = %v, want 0", got)
	}
}

func TestCompareAntisymmetryQuick(t *testing.T) {
	f := func(a, b int64) bool {
		return Int(a).Compare(Int(b)) == -Int(b).Compare(Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArithCommutativityQuick(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Int(int64(a)), Int(int64(b))
		return x.Add(y).Equal(y.Add(x)) && x.Mul(y).Equal(y.Mul(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Key renders the projection of r onto cols as length-prefixed text: the
// reference semantics of AppendKey, whose encodings of two rows are equal
// iff their Keys are. It was the seed's keying mechanism; nothing outside the
// tests calls it any more.
func (r Row) Key(cols []int) string {
	var b strings.Builder
	for _, c := range cols {
		s := r[c].String()
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	return b.String()
}

func TestRowKeyUnambiguous(t *testing.T) {
	// ("ab","c") and ("a","bc") must have different keys.
	r1 := Row{Str("ab"), Str("c")}
	r2 := Row{Str("a"), Str("bc")}
	if r1.Key([]int{0, 1}) == r2.Key([]int{0, 1}) {
		t.Error("row keys collide for distinct rows")
	}

	// The value encoding (AppendKey + KeyHasher) must agree with the text Key
	// on group/join semantics: two rows are key-equal on one path iff they
	// are on the other. The corpus is adversarial — empty strings, field
	// boundaries that could shift, embedded ':' and tabs (the text key's
	// separator and the TSV delimiter), negative floats, the intentional
	// Int/Float collision (both render "2"), and every place a number's
	// encoding could part from its rendering: the switch to exponent form at
	// 1e6, signed zero, NaN payloads, infinities, and strings that are, or
	// nearly are, a number's text.
	rows := []Row{
		{Str("ab"), Str("c")},
		{Str("a"), Str("bc")},
		{Str(""), Str("")},
		{Str(""), Str("abc")},
		{Str("abc"), Str("")},
		{Str("a:b"), Str("c")},
		{Str("a"), Str("b:c")},
		{Str("a\tb"), Str("c")},
		{Str("a"), Str("b\tc")},
		{Str("a\n"), Str("b")},
		{Int(-1), Str("")},
		{Float(-1), Str("")},
		{Float(-1.5), Str("x")},
		{Float(-0.5), Str("x")},
		{Int(2), Str("x")},
		{Float(2), Str("x")},
	}
	cells := []Value{
		Int(999999), Float(999999), Int(1000000), Float(1e6), Int(1234567), Float(1234567),
		Float(0), Float(math.Copysign(0, -1)), Int(0),
		Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001)), Float(math.Float64frombits(0xfff0000000000123)),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(0.5), Float(1e-5), Int(math.MinInt64), Int(math.MaxInt64),
		Str("2"), Str("02"), Str("-1"), Str("1e+06"), Str("1e6"), Str("NaN"), Str("Inf"), Str("+Inf"), Str("-Inf"), Str("-0"),
		Str("0.5"), Str(".5"), Str("1e-05"), Str("1234567"), Str("1.234567e+06"), Str("-9223372036854775808"),
		Str("99999999999999999999"), Str("2015-01-01"), Str("-"), Str("1."), Str("1e+"), Str("N"),
	}
	for _, c := range cells {
		rows = append(rows, Row{c, Str("x")})
	}
	cols := []int{0, 1}
	var h KeyHasher
	type enc struct {
		legacy string
		key    []byte
		hash   uint64
	}
	encs := make([]enc, len(rows))
	for i, r := range rows {
		hash, key := h.HashKey(r, cols)
		encs[i] = enc{legacy: r.Key(cols), key: append([]byte(nil), key...), hash: hash}
	}
	for i := range rows {
		for j := range rows {
			legacyEq := encs[i].legacy == encs[j].legacy
			hashedEq := string(encs[i].key) == string(encs[j].key)
			if legacyEq != hashedEq {
				t.Errorf("rows %v and %v: text equal=%v, encoding equal=%v", rows[i], rows[j], legacyEq, hashedEq)
			}
			if hashedEq && encs[i].hash != encs[j].hash {
				t.Errorf("rows %v and %v: equal keys but different hashes", rows[i], rows[j])
			}
		}
	}
	// Sanity: the rendering-collision pairs really do collide on both paths.
	if encs[10].legacy != encs[11].legacy || string(encs[10].key) != string(encs[11].key) {
		t.Error("Int(-1) and Float(-1) should be key-equal (both render \"-1\")")
	}
	if encs[14].legacy != encs[15].legacy || string(encs[14].key) != string(encs[15].key) {
		t.Error("Int(2) and Float(2) should be key-equal (both render \"2\")")
	}
}

// FuzzKeyEquality is AppendKey's contract over two cells of any kinds:
// their encodings are equal exactly when their renderings are, and equal
// encodings hash alike.
func FuzzKeyEquality(f *testing.F) {
	f.Add(uint8(0), int64(2), 0.0, "", uint8(1), int64(0), 2.0, "")
	f.Add(uint8(0), int64(2), 0.0, "", uint8(2), int64(0), 0.0, "2")
	f.Add(uint8(1), int64(0), 1e6, "", uint8(2), int64(0), 0.0, "1e+06")
	f.Add(uint8(1), int64(0), 1234567.0, "", uint8(0), int64(1234567), 0.0, "")
	f.Add(uint8(1), int64(0), math.Copysign(0, -1), "", uint8(2), int64(0), 0.0, "-0")
	f.Add(uint8(1), int64(0), math.NaN(), "", uint8(2), int64(0), 0.0, "NaN")
	f.Add(uint8(1), int64(0), math.Inf(1), "", uint8(2), int64(0), 0.0, "+Inf")
	f.Add(uint8(1), int64(0), 0.1, "", uint8(2), int64(0), 0.0, "0.1")
	f.Add(uint8(0), int64(math.MinInt64), 0.0, "", uint8(2), int64(0), 0.0, "-9223372036854775808")
	f.Add(uint8(2), int64(0), 0.0, "02", uint8(2), int64(0), 0.0, "2")
	cell := func(kind uint8, i int64, x float64, s string) Value {
		switch kind % 3 {
		case 0:
			return Int(i)
		case 1:
			return Float(x)
		}
		return Str(s)
	}
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, xa float64, sa string, kb uint8, ib int64, xb float64, sb string) {
		a, b := cell(ka, ia, xa, sa), cell(kb, ib, xb, sb)
		// Against b, and against a's own text as a string: always a's equal.
		for _, o := range []Value{b, Str(a.String())} {
			var h KeyHasher
			ha, key := h.HashKey(Row{a}, []int{0})
			keyA := string(key)
			ho, key := h.HashKey(Row{o}, []int{0})
			textEq := a.String() == o.String()
			if (keyA == string(key)) != textEq {
				t.Fatalf("%#v and %#v: renderings equal=%v, encodings %x and %x", a, o, textEq, keyA, key)
			}
			if textEq && ha != ho {
				t.Fatalf("%#v and %#v: equal keys, different hashes", a, o)
			}
			// The word path keys the two cells alike exactly when the bytes do.
			if err := sameClasses(Row{a}, Row{o}, []int{0}); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// sameClasses checks the word path against AppendKey on rows a and b: a key
// is a word key exactly when no cell encodes as a string, a word key's words
// are the bits and tags its encoding holds, the two keys are equal exactly
// when the encodings are, and so when the text keys are, and equal keys hash
// alike.
func sameClasses(a, b Row, cols []int) error {
	type key struct {
		hash, tags uint64
		cells      []uint64
		bytes      []byte
	}
	var ka, kb key
	var ha, hb KeyHasher
	ka.hash, ka.tags, ka.cells, ka.bytes = ha.Key(a, cols)
	kb.hash, kb.tags, kb.cells, kb.bytes = hb.Key(b, cols)
	for _, rk := range []struct {
		r Row
		k key
	}{{a, ka}, {b, kb}} {
		enc := rk.r.AppendKey(nil, cols)
		if numeric := len(enc) == 9*len(cols) && allNumeric(enc); numeric != (rk.k.bytes == nil) {
			return fmt.Errorf("%v: encoding %x, but word key = %v", rk.r, enc, rk.k.bytes == nil)
		}
		if rk.k.bytes != nil {
			if !bytes.Equal(rk.k.bytes, enc) {
				return fmt.Errorf("%v: byte key %x, encoding %x", rk.r, rk.k.bytes, enc)
			}
			continue
		}
		for i := range cols {
			tag, bits := enc[9*i], binary.LittleEndian.Uint64(enc[9*i+1:])
			if rk.k.cells[i] != bits || rk.k.tags>>i&1 != uint64(tag) {
				return fmt.Errorf("%v: cell %d is word %x tag %d, encoding %x", rk.r, i, rk.k.cells[i], rk.k.tags>>i&1, enc)
			}
		}
	}
	bytesEq := bytes.Equal(a.AppendKey(nil, cols), b.AppendKey(nil, cols))
	keyEq := ka.tags == kb.tags && slices.Equal(ka.cells, kb.cells) && bytes.Equal(ka.bytes, kb.bytes) && (ka.bytes == nil) == (kb.bytes == nil)
	textEq := a.Key(cols) == b.Key(cols)
	if bytesEq != keyEq || keyEq != textEq {
		return fmt.Errorf("%v and %v: encodings equal=%v, keys equal=%v, texts equal=%v", a, b, bytesEq, keyEq, textEq)
	}
	if keyEq && ka.hash != kb.hash {
		return fmt.Errorf("%v and %v: equal keys, different hashes", a, b)
	}
	return nil
}

// allNumeric reports whether enc, an encoding of 9-byte cells, has only
// number tags.
func allNumeric(enc []byte) bool {
	for i := 0; i < len(enc); i += 9 {
		if enc[i] == keyString {
			return false
		}
	}
	return true
}

// keyPair is two rows of one to three cells for TestWordKeysQuick: ints,
// floats and numbers' texts, the edge cases of text equality among them, and
// the second row's cells often the first's in another kind, so equal keys
// are common.
type keyPair struct{ a, b Row }

var edgeCells = []Value{
	Int(3), Float(3), Str("3"), Int(0), Float(0), Float(math.Copysign(0, -1)), Str("-0"), Str("0"),
	Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001)), Float(math.Float64frombits(0xfff0000000000123)), Str("NaN"),
	Int(1234567), Float(1234567), Str("1234567"), Str("1.234567e+06"), Int(999999), Float(999999), Float(1e6), Str("1e+06"),
	Int(1<<53 + 1), Float(1<<53 + 2), Float(1 << 53), Int(1 << 53), Str("9007199254740993"),
	Str("007"), Str("7"), Int(7), Float(math.Inf(1)), Str("+Inf"), Float(math.Inf(-1)), Str("-Inf"),
	Int(math.MinInt64), Int(math.MaxInt64), Str("-9223372036854775808"), Float(0.5), Str("0.5"), Float(-1.5), Str("-1.5"),
}

func (keyPair) Generate(r *rand.Rand, _ int) reflect.Value {
	cell := func() Value {
		switch r.Intn(4) {
		case 0:
			return edgeCells[r.Intn(len(edgeCells))]
		case 1:
			return Int(r.Int63n(20) - 10)
		case 2:
			return Float(float64(r.Intn(40)-20) / 2)
		}
		return Str(strconv.Itoa(r.Intn(20) - 10))
	}
	// alike is a cell of another kind that renders as v, when there is one.
	alike := func(v Value) Value {
		switch r.Intn(3) {
		case 0:
			return Str(v.String())
		case 1:
			if f, err := strconv.ParseFloat(v.String(), 64); err == nil {
				return Float(f)
			}
		}
		if i, err := strconv.ParseInt(v.String(), 10, 64); err == nil {
			return Int(i)
		}
		return v
	}
	n := 1 + r.Intn(3)
	p := keyPair{make(Row, n), make(Row, n)}
	for i := range p.a {
		p.a[i] = cell()
		if p.b[i] = alike(p.a[i]); r.Intn(4) == 0 {
			p.b[i] = cell()
		}
	}
	return reflect.ValueOf(p)
}

// TestWordKeysQuick: over mixed Int, Float and numeric-string cells, the word
// path and AppendKey give the same equality classes, and equal word keys
// hash alike.
func TestWordKeysQuick(t *testing.T) {
	f := func(p keyPair) bool {
		if err := sameClasses(p.a, p.b, allCols(len(p.a))); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	// A string that is no number's text makes a byte key, which no word key
	// equals, and so does a key wider than MaxWordCells.
	wide := make(Row, MaxWordCells+1)
	for i := range wide {
		wide[i] = Int(int64(i))
	}
	var h KeyHasher
	if _, _, _, b := h.Key(Row{Int(7), Str("007")}, []int{0, 1}); b == nil {
		t.Error(`(7, "007") made a word key`)
	}
	if _, _, _, b := h.Key(wide, allCols(len(wide))); b == nil {
		t.Errorf("a key of %d cells made a word key", len(wide))
	}
}

func allCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// TestHashKeyAllocatesNothing: not for numbers, and not for strings that
// look like numbers for a while (a failed strconv parse would allocate).
func TestHashKeyAllocatesNothing(t *testing.T) {
	row := Row{Int(7), Float(0.25), Str("2015-01-01"), Str("New York"), Str("1st"), Str("1e+06"), Str("-1.5e"), Str("12.5")}
	cols := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var h KeyHasher
	h.HashKey(row, cols)
	if n := testing.AllocsPerRun(100, func() { h.HashKey(row, cols) }); n != 0 {
		t.Errorf("HashKey allocates %v objects per row", n)
	}
}

func TestRowKeyQuick(t *testing.T) {
	// For random single-column int rows, hashed-key equality must track value
	// equality exactly (the hash itself may collide; the encoded bytes never).
	var h1, h2 KeyHasher
	f := func(a, b int64) bool {
		ra, rb := Row{Int(a)}, Row{Int(b)}
		_, ka := h1.HashKey(ra, []int{0})
		_, kb := h2.HashKey(rb, []int{0})
		return (string(ka) == string(kb)) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewSchemaAndIndex(t *testing.T) {
	s := NewSchema("uid:int", "price:float", "town:string")
	if s.Arity() != 3 {
		t.Fatalf("arity = %d", s.Arity())
	}
	if s.Index("price") != 1 {
		t.Errorf("Index(price) = %d", s.Index("price"))
	}
	if s.Index("missing") != -1 {
		t.Errorf("Index(missing) = %d", s.Index("missing"))
	}
	if _, err := s.MustIndex("missing"); err == nil {
		t.Error("MustIndex(missing) succeeded")
	}
}

func TestSchemaConcatRenames(t *testing.T) {
	a := NewSchema("id:int", "v:int")
	b := NewSchema("id:int", "w:int")
	c := a.Concat(b)
	if c.Arity() != 4 {
		t.Fatalf("arity = %d", c.Arity())
	}
	if c.Index("r_id") != 2 {
		t.Errorf("collision not renamed: %s", c)
	}
}

func TestSchemaProject(t *testing.T) {
	s := NewSchema("a:int", "b:float", "c:string")
	p := s.Project([]int{2, 0})
	want := NewSchema("c:string", "a:int")
	if !p.Equal(want) {
		t.Errorf("Project = %s, want %s", p, want)
	}
}

func TestRelationAppendArity(t *testing.T) {
	r := New("t", NewSchema("a:int"))
	if err := r.Append(Row{Int(1), Int(2)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := r.Append(Row{Int(1)}); err != nil {
		t.Errorf("valid append rejected: %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := New("props", NewSchema("id:int", "price:float", "town:string"))
	r.MustAppend(Row{Int(1), Float(250000.5), Str("Cambridge")})
	r.MustAppend(Row{Int(2), Float(-1), Str("")})
	r.LogicalBytes = 1 << 30

	got, err := DecodeBytes("props", r.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema.Equal(r.Schema) {
		t.Errorf("schema %s != %s", got.Schema, r.Schema)
	}
	if got.LogicalBytes != r.LogicalBytes {
		t.Errorf("logical %d != %d", got.LogicalBytes, r.LogicalBytes)
	}
	if got.Fingerprint() != r.Fingerprint() {
		t.Errorf("rows differ:\n%s\nvs\n%s", got.Fingerprint(), r.Fingerprint())
	}
}

func TestEncodeDecodeRoundTripQuick(t *testing.T) {
	f := func(ids []int64, weights []float64) bool {
		r := New("q", NewSchema("id:int", "w:float"))
		n := len(ids)
		if len(weights) < n {
			n = len(weights)
		}
		for i := 0; i < n; i++ {
			w := weights[i]
			if math.IsNaN(w) || math.IsInf(w, 0) {
				w = 0
			}
			r.MustAppend(Row{Int(ids[i]), Float(w)})
		}
		got, err := DecodeBytes("q", r.EncodeBytes())
		if err != nil {
			return false
		}
		return got.Fingerprint() == r.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"",
		"no header\n",
		"#schema\tbadspec\n#logical\t0\n",
		"#schema\ta:int\nmissing logical\n",
		"#schema\ta:int\n#logical\t0\n1\t2\n", // arity
		"#schema\ta:int\n#logical\t0\nxyz\n",  // parse
	}
	for _, c := range cases {
		if _, err := DecodeBytes("bad", []byte(c)); err == nil {
			t.Errorf("DecodeBytes(%q) succeeded, want error", c)
		}
	}
}

func TestScaleRatio(t *testing.T) {
	r := New("t", NewSchema("a:int"))
	r.MustAppend(Row{Int(12345)})
	if r.ScaleRatio() != 1 {
		t.Errorf("no logical size: ratio = %v", r.ScaleRatio())
	}
	phys := r.PhysicalBytes()
	r.LogicalBytes = phys * 100
	if got := r.ScaleRatio(); math.Abs(got-100) > 1e-9 {
		t.Errorf("ratio = %v, want 100", got)
	}
}

func TestEffectiveBytes(t *testing.T) {
	r := New("t", NewSchema("a:int"))
	r.MustAppend(Row{Int(7)})
	if r.EffectiveBytes() != r.PhysicalBytes() {
		t.Error("effective should default to physical")
	}
	r.LogicalBytes = 999
	if r.EffectiveBytes() != 999 {
		t.Error("effective should use logical when set")
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := New("t", NewSchema("a:int"))
	r.MustAppend(Row{Int(1)})
	c := r.Clone()
	c.Rows[0][0] = Int(99)
	if r.Rows[0][0].I != 1 {
		t.Error("Clone shares row storage")
	}
}

func TestSortRowsAndFingerprint(t *testing.T) {
	r := New("t", NewSchema("a:int", "b:string"))
	r.MustAppend(Row{Int(2), Str("b")})
	r.MustAppend(Row{Int(1), Str("a")})
	r.SortRows()
	if r.Rows[0][0].I != 1 {
		t.Errorf("not sorted: %v", r.Rows)
	}
	// Fingerprint is order independent.
	r2 := New("t", NewSchema("a:int", "b:string"))
	r2.MustAppend(Row{Int(1), Str("a")})
	r2.MustAppend(Row{Int(2), Str("b")})
	if r.Fingerprint() != r2.Fingerprint() {
		t.Error("fingerprint depends on row order")
	}
}
