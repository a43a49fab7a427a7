// Package relation implements the tabular data model shared by every layer
// of Musketeer: typed values, rows, schemas and relations, plus the one format
// every file of the simulated distributed filesystem is stored in — columnar
// row groups, written by Writer and opened by Open — and TSV, which is only
// the text users hand in (DecodeBytes) and read back (EncodeBytes).
//
// All seven back-end execution engines operate on these types through the
// shared kernels in internal/exec, which is what lets the test suite assert
// that every engine computes identical results for the same IR fragment.
package relation

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"
)

// Kind enumerates the value types supported by the IR's column algebra.
type Kind uint8

const (
	// KindInt is a 64-bit signed integer column.
	KindInt Kind = iota
	// KindFloat is a 64-bit IEEE-754 column.
	KindFloat
	// KindString is a UTF-8 string column.
	KindString
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a kind name produced by Kind.String back to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "int":
		return KindInt, nil
	case "float":
		return KindFloat, nil
	case "string":
		return KindString, nil
	default:
		return 0, fmt.Errorf("relation: unknown kind %q", s)
	}
}

// Value is a single typed cell. The zero value is the integer 0.
//
// Value is a small struct rather than an interface so rows stay contiguous
// in memory and comparisons avoid dynamic dispatch; this matters for the
// join and group-by kernels that dominate workflow execution time.
//
// w caches the byte length of a numeric value's text rendering (0 = not
// measured yet; every numeric rendering is 1–24 bytes). It lives in the
// padding after Kind, so a Value is still 40 bytes, and it rides along
// whenever a kernel copies the struct. Kind, I, F and S are written only
// by this package's constructors: assigning one directly would leave a
// stale width behind, which CheckWidths reports.
type Value struct {
	Kind Kind
	w    uint8
	I    int64
	F    float64
	S    string
}

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// AsFloat returns the numeric content of v, converting integers.
// String values yield 0.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		return 0
	}
}

// AsInt returns the numeric content of v truncated to an integer.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt:
		return v.I
	case KindFloat:
		return int64(v.F)
	default:
		return 0
	}
}

// String renders the value the way the TSV codec writes it.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return v.S
	}
}

// AppendText appends the String rendering of v to dst without allocating an
// intermediate string; it is the codec- and key-building primitive.
func (v Value) AppendText(dst []byte) []byte {
	switch v.Kind {
	case KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		return appendFloat(dst, v.F)
	default:
		return append(dst, v.S...)
	}
}

// appendFloat appends strconv.AppendFloat(dst, f, 'g', -1, 64), writing an
// integer or a decimal of up to three places without strconv: in [1e-4, 1e6)
// %g is positional, and a decimal of ≤ 15 digits that divides back to f
// exactly is its one shortest rendering once trailing zeros are dropped. The
// rest, and NaN, take strconv's word for it. It renders; a width that is
// only counted comes from floatTextLen first (see measure).
func appendFloat(dst []byte, f float64) []byte {
	a := math.Abs(f)
	m := math.Round(a * 1e3)
	if !(a < 1e6 && (a >= 1e-4 || a == 0) && m/1e3 == a) {
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	u, k := uint64(m), 3
	for ; k > 0 && u%10 == 0; k-- {
		u /= 10
	}
	var buf [12]byte // sign, at most nine digits, the point
	i := len(buf)
	for d := 0; d <= k || u > 0; d++ { // k decimals, then ≥ 1 integer digits
		if d == k && k > 0 {
			i--
			buf[i] = '.'
		}
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	if math.Signbit(f) {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:]...)
}

// TextLen returns len(v.AppendText(nil)) without building the text: the
// cached width when v carries one, else an exact measure.
func (v Value) TextLen() int {
	switch {
	case v.Kind == KindString:
		return len(v.S)
	case v.w != 0:
		return int(v.w)
	}
	return v.measure(nil)
}

// WidthMemo remembers the text widths of the floats one goroutine measured
// last: float bits to width, direct-mapped, exact because the same bits
// render to the same text. Whatever sizes rows on one goroutine that meet the
// same floats again owns one (a pipeline range for its taps, a writer's
// part): derived columns repeat — a GAS scatter sends one rank/degree along
// every out-edge of a vertex — and a probe is cheaper than floatTextLen. The
// zero value is ready; the table is taken on the first float measured, so
// sizing rows that hold none costs nothing, and Release hands it back to
// widthTables for the next memo: its entries stay exact whoever wrote them.
type WidthMemo struct{ t *widthTable }

var widthTables = sync.Pool{New: func() any { return new(widthTable) }}

// Release hands the memo's table back; the memo is empty again.
func (m *WidthMemo) Release() {
	if m.t != nil {
		widthTables.Put(m.t)
		m.t = nil
	}
}

const widthSlots = 64 // widthSlot keeps a hash's top six bits

type widthTable struct {
	bits [widthSlots]uint64
	w    [widthSlots]uint8 // 0: the slot is empty
}

func widthSlot(bits uint64) uint64 { return bits * 0x9e3779b97f4a7c15 >> 58 }

// measure renders nothing to the heap: a digit count for an int; for a float
// the width m remembers for its bits, else floatWidth's, which m (if there is
// one) then remembers. v must be numeric.
func (v *Value) measure(m *WidthMemo) int {
	if v.Kind == KindInt {
		return intTextLen(v.I)
	}
	if m == nil {
		return floatWidth(v.F)
	}
	if m.t == nil {
		m.t = widthTables.Get().(*widthTable)
	}
	bits := math.Float64bits(v.F)
	s := widthSlot(bits)
	if m.t.w[s] == 0 || m.t.bits[s] != bits {
		m.t.bits[s], m.t.w[s] = bits, uint8(floatWidth(v.F))
	}
	return int(m.t.w[s])
}

// floatWidth returns len(appendFloat(nil, f)): floatTextLen's count where it
// has one, else the length of a render into a stack buffer.
func floatWidth(f float64) int {
	if n, ok := floatTextLen(f); ok {
		return n
	}
	var buf [32]byte
	return len(appendFloat(buf[:0], f))
}

// The powers floatTextLen scales bounds by and counts digits against.
var (
	pow5 = [...]uint64{1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625, 48828125, 244140625, 1220703125, 6103515625, 30517578125, 152587890625, 762939453125, 3814697265625, 19073486328125, 95367431640625, 476837158203125}
	tens = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
)

// floatTextLen returns len(strconv.AppendFloat(nil, f, 'g', -1, 64)) without
// rendering, in integer arithmetic, for a normal f with 1e-4 <= |f| < 1e6 —
// where %g is positional; ok is false elsewhere. The text is the shortest
// decimal in f's rounding interval, which Ryū (Adams, PLDI 2018; strconv's
// ryuFtoaShortest) brackets before printing a digit: the interval's bounds,
// scaled by 10^s to about 17 integer digits, lose the most trailing digits
// that still leave an integer between them. Every integer left then has the
// same digit count and decimal point, so the width does not depend on which
// one Ryū prints.
func floatTextLen(f float64) (n int, ok bool) {
	b := math.Float64bits(f)
	x := int(b>>52&0x7ff) - 1023 // f = ±mant·2^(x-52)
	if x < -14 || x > 19 {       // |f| < 2^-14 < 1e-4, |f| >= 2^20 > 1e6, or not normal
		return 0, false
	}
	mant := b&(1<<52-1) | 1<<52
	// The bounds of f's rounding interval in units of 2^(x-54): half an ulp
	// either side, a quarter below a power of two (strconv's computeBounds).
	lo, hi := 4*mant-2, 4*mant+2
	if mant == 1<<52 {
		lo = 4*mant - 1
	}
	// Neither bound is an integer once scaled: it has at most one trailing
	// zero bit, and the scaling divides by at least 2^24 (decimalScale). So
	// whether round-half-even would read a bound back as f never matters;
	// the candidates are the integers strictly between them.
	s, sh := decimalScale(x)
	l, u := scaleBound(lo, s, sh)+1, scaleBound(hi, s, sh)
	// Trim k digits: eight at a time, then four, two and one. Whether k
	// digits can go only gets harder as k grows, so this finds the most.
	k := 0
	for (l+1e8-1)/1e8 <= u/1e8 {
		l, u, k = (l+1e8-1)/1e8, u/1e8, k+8
	}
	if (l+1e4-1)/1e4 <= u/1e4 {
		l, u, k = (l+1e4-1)/1e4, u/1e4, k+4
	}
	if (l+99)/100 <= u/100 {
		l, u, k = (l+99)/100, u/100, k+2
	}
	if (l+9)/10 <= u/10 {
		l, u, k = (l+9)/10, u/10, k+1
	}
	nd := (bits.Len64(u) * 1233) >> 12 // ⌊log10 u⌋ or one less
	if u >= tens[nd] {
		nd++
	}
	dp := nd + k - s // the text is 0.d1…d_nd × 10^dp
	if dp < -3 || dp > 6 {
		return 0, false // %g switches to exponent form
	}
	n = max(dp, 1) // integer digits
	if nd > dp {
		n += 1 + nd - dp // the point and the fraction
	}
	if b>>63 != 0 {
		n++
	}
	return n, true
}

// decimalScale returns the scaling floatTextLen applies to bounds in units of
// 2^(x-54), 10^s = 5^s·2^s with s = 16 - ⌊x·log10(2)⌋, as s and the right
// shift 54-x-s that carries the 2^(s+x-54). For x in [-14, 19], s is in
// [11, 21] (a 55-bit bound times 5^s < 2^49 is exact in 128 bits), the
// shift is in [24, 47], and a bound scales to about 17 digits.
func decimalScale(x int) (s int, sh uint) {
	s = 16 - (x*78913)>>18 // 78913/2^18 ≈ log10(2): exact floors for |x| < 1600
	return s, uint(54 - x - s)
}

// scaleBound returns ⌊bound·5^s / 2^sh⌋.
func scaleBound(bound uint64, s int, sh uint) uint64 {
	hi, lo := bits.Mul64(bound, pow5[s])
	return hi<<(64-sh) | lo>>sh
}

// intTextLen returns the length of i's decimal rendering: its digit count,
// from its bit length and one comparison (floatTextLen counts the same way),
// plus the sign.
func intTextLen(i int64) int {
	n := 0
	u := uint64(i)
	if i < 0 {
		n, u = 1, -u // two's complement negation is right for MinInt64 too
	}
	u |= 1                            // 0 has one digit, as 1 does
	d := (bits.Len64(u) * 1233) >> 12 // ⌊log10 u⌋ or one more
	if u < tens[d] {
		d--
	}
	return n + d + 1
}

// ParseValue parses field text into a value of the given kind.
func ParseValue(kind Kind, field string) (Value, error) {
	switch kind {
	case KindInt:
		i, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relation: parse int %q: %w", field, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relation: parse float %q: %w", field, err)
		}
		return Float(f), nil
	default:
		return Str(field), nil
	}
}

// Equal reports whether two values are identical in kind and content.
// An int and a float are never Equal even if numerically equivalent;
// predicate evaluation uses Compare, which coerces numerics.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindInt:
		return v.I == o.I
	case KindFloat:
		return v.F == o.F
	default:
		return v.S == o.S
	}
}

// Compare orders two values: -1 if v < o, 0 if equal, +1 if v > o.
// Numeric kinds are coerced to float for cross-kind comparison; strings
// compare lexicographically and sort after numbers when kinds mix.
func (v Value) Compare(o Value) int {
	vs, os := v.Kind == KindString, o.Kind == KindString
	switch {
	case vs && os:
		return strings.Compare(v.S, o.S)
	case vs:
		return 1
	case os:
		return -1
	case v.Kind == KindInt && o.Kind == KindInt:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	default:
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
}

// Add returns v + o with numeric coercion (int+int stays int).
func (v Value) Add(o Value) Value { return arith(v, o, '+') }

// Sub returns v - o with numeric coercion.
func (v Value) Sub(o Value) Value { return arith(v, o, '-') }

// Mul returns v * o with numeric coercion.
func (v Value) Mul(o Value) Value { return arith(v, o, '*') }

// Div returns v / o as a float; division by zero yields 0 so iterative
// workflows (e.g. PageRank over dangling vertices) stay total.
func (v Value) Div(o Value) Value {
	d := o.AsFloat()
	if d == 0 {
		return Float(0)
	}
	return Float(v.AsFloat() / d)
}

func arith(v, o Value, op byte) Value {
	if v.Kind == KindInt && o.Kind == KindInt {
		switch op {
		case '+':
			return Int(v.I + o.I)
		case '-':
			return Int(v.I - o.I)
		default:
			return Int(v.I * o.I)
		}
	}
	a, b := v.AsFloat(), o.AsFloat()
	switch op {
	case '+':
		return Float(a + b)
	case '-':
		return Float(a - b)
	default:
		return Float(a * b)
	}
}

// Row is one tuple of a relation. Rows are positional; names live in the
// relation's schema.
type Row []Value

// EncodedLen returns the bytes the row occupies in a TSV body: every field's
// text plus its separator or newline. It is the one definition of a row's
// physical size; PhysicalBytes and the fused pipelines' taps both sum it.
// The row is only read, so it is safe on rows other goroutines share.
func (r Row) EncodedLen() int64 { return r.encodedLen(false, nil) }

// StampEncodedLen is EncodedLen for a row whose storage the caller owns
// exclusively (it has just built it and not yet published it): each numeric
// width it has to measure — through m, the caller's memo — is cached in the
// cell, so every later sizing of the cell, and of every copy a kernel makes
// of it, is a byte add. Never call it on rows another goroutine may read.
func (r Row) StampEncodedLen(m *WidthMemo) int64 { return r.encodedLen(true, m) }

func (r Row) encodedLen(stamp bool, m *WidthMemo) int64 {
	n := int64(len(r)) // one separator or newline per field
	for i := range r {
		v := &r[i]
		switch {
		case v.Kind == KindString:
			n += int64(len(v.S))
		case v.w != 0:
			n += int64(v.w)
		default:
			w := v.measure(m)
			if stamp {
				v.w = uint8(w)
			}
			n += int64(w)
		}
	}
	return n
}

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// The tag bytes of AppendKey's cells.
const (
	keyInt byte = iota
	keyFloat
	keyString
)

// AppendKey appends the join/group key of the projection of r onto cols to
// dst: per cell a tag byte, then 8 bytes of a number or a 4-byte length and a
// string's bytes — prefix-free, and nothing allocated once dst has capacity.
// Two cells encode alike exactly when their AppendText renderings are equal,
// whatever their kinds: Int(2), Float(2) and Str("2") are one key;
// Int(1234567) and Float(1234567), which renders 1.234567e+06, are two; 0 and
// -0 are two; every NaN is one. Each cell is encoded as the one number that
// renders like it, if there is one (see keyCell). A key is compared and
// hashed (see KeyHasher), never printed; a key of numbers is compared as the
// words after its tags (KeyHasher.KeyAt).
func (r Row) AppendKey(dst []byte, cols []int) []byte {
	for _, c := range cols {
		dst = appendKeyCell(dst, &r[c])
	}
	return dst
}

// appendKeyCell appends v's cell of an AppendKey encoding.
func appendKeyCell(dst []byte, v *Value) []byte {
	tag, bits := keyCell(v)
	if tag == keyString {
		n := len(v.S)
		return append(append(dst, keyString, byte(n), byte(n>>8), byte(n>>16), byte(n>>24)), v.S...)
	}
	return append(dst, tag, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
		byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
}

// keyCell is v's key cell: the tag and bits of the one number that renders
// like v — an integral float below 1e6 as its integer, a string that is a
// number's rendering as that number — or keyString when there is none.
func keyCell(v *Value) (tag byte, bits uint64) {
	switch s := v.S; {
	case v.Kind == KindFloat:
		return floatKey(v.F)
	case v.Kind != KindString:
		return keyInt, uint64(v.I)
	case len(s) > 0 && (s[0]-'0' <= 9 || s[0] == '-' || s[0] == '+' || s[0] == 'N'):
		// The first byte of a number's text, which almost no string has.
		return textKey(s)
	}
	return keyString, 0
}

// floatKey is the key cell of f: the integer it renders like if it is
// integral, below 1e6 and not -0; else its bits, one NaN's for every NaN.
func floatKey(f float64) (tag byte, bits uint64) {
	switch {
	case math.Abs(f) < 1e6 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)):
		return keyInt, uint64(int64(f))
	case f != f:
		return keyFloat, math.Float64bits(math.NaN())
	}
	return keyFloat, math.Float64bits(f)
}

// textKey is the key cell of the number whose AppendText rendering is exactly
// s, which is not empty, if there is one; else its tag is keyString. A string
// shaped like a number is parsed — so strconv never builds an error on the
// way — and kept if it renders back to s ("02", "1e6" and "Inf" do not).
func textKey(s string) (tag byte, bits uint64) {
	var buf [32]byte
	switch numberShape(s) {
	case KindInt:
		if i, err := strconv.ParseInt(s, 10, 64); err == nil && string(strconv.AppendInt(buf[:0], i, 10)) == s {
			return keyInt, uint64(i)
		}
	case KindFloat:
		if f, err := strconv.ParseFloat(s, 64); err == nil && string(appendFloat(buf[:0], f)) == s {
			return floatKey(f)
		}
	}
	return keyString, 0
}

// numberShape is the kind of number s, which is not empty, could be the
// rendering of: KindInt for [-]digits, KindFloat for
// [-]digits[.digits][e±digits] and the four texts only a float renders to,
// KindString for none (nothing over 24 bytes is a number's text).
func numberShape(s string) Kind {
	if len(s) > 24 {
		return KindString
	}
	switch s {
	case "NaN", "+Inf", "-Inf", "-0":
		return KindFloat
	}
	kind, i := KindInt, 0
	if s[0] == '-' {
		i = 1
	}
	for part := 0; ; part++ { // the integer's digits, the fraction's, the exponent's
		from := i
		for i < len(s) && s[i]-'0' <= 9 {
			i++
		}
		switch {
		case i == from:
			return KindString
		case i == len(s):
			return kind
		case part == 0 && s[i] == '.':
			i++
		case part < 2 && i+1 < len(s) && s[i] == 'e' && (s[i+1] == '+' || s[i+1] == '-'):
			i, part = i+2, 1
		default:
			return KindString
		}
		kind = KindFloat
	}
}
