// Package relation implements the tabular data model shared by every layer
// of Musketeer: typed values, rows, schemas and relations, plus the TSV
// codecs used by the simulated distributed filesystem.
//
// All seven back-end execution engines operate on these types through the
// shared kernels in internal/exec, which is what lets the test suite assert
// that every engine computes identical results for the same IR fragment.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
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
// by this package's constructors (mkvet rule value-fields): assigning one
// directly would leave a stale width behind.
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
// rest, and NaN, take strconv's word for it.
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
	return v.measure()
}

// measure renders nothing to the heap: a digit count for an int, a render
// into a stack buffer for a float. v must be numeric.
func (v *Value) measure() int {
	if v.Kind == KindInt {
		return intTextLen(v.I)
	}
	var buf [32]byte
	return len(appendFloat(buf[:0], v.F))
}

// stampEncoded caches the width of a numeric cell just parsed from field,
// text that Encode wrote. An int's width is counted from its value, which is
// exact whatever wrote the text. A float's is the field's length: AppendText
// rendered the field from this very float, and the shortest rendering
// round-trips. The one exception is an Int that sat in a float column (ARITH
// over an int column and an int literal declares a float result): integer
// text of seven or more digits re-renders in exponent form, so such a field
// is left for TextLen to measure.
func (v *Value) stampEncoded(field []byte) {
	switch v.Kind {
	case KindInt:
		v.w = uint8(intTextLen(v.I))
	case KindFloat:
		digits := field
		if len(digits) > 0 && digits[0] == '-' {
			digits = digits[1:]
		}
		if len(digits) > 6 && allDigits(digits) {
			return
		}
		if len(field) < 256 {
			v.w = uint8(len(field))
		}
	}
}

func allDigits(s []byte) bool {
	for i := 0; i < len(s); i++ {
		if s[i]-'0' > 9 {
			return false
		}
	}
	return true
}

// intTextLen returns the length of i's decimal rendering.
func intTextLen(i int64) int {
	n := 1
	u := uint64(i)
	if i < 0 {
		n, u = 2, -u // two's complement negation is right for MinInt64 too
	}
	for u >= 10000 {
		u /= 10000
		n += 4
	}
	switch {
	case u >= 1000:
		return n + 3
	case u >= 100:
		return n + 2
	case u >= 10:
		return n + 1
	}
	return n
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
func (r Row) EncodedLen() int64 { return r.encodedLen(false) }

// StampEncodedLen is EncodedLen for a row whose storage the caller owns
// exclusively (it has just built it and not yet published it): each numeric
// width it has to measure is cached in the cell, so every later sizing of
// the cell — and of every copy a kernel makes of it — is a byte add. Never
// call it on rows another goroutine may read.
func (r Row) StampEncodedLen() int64 { return r.encodedLen(true) }

func (r Row) encodedLen(stamp bool) int64 {
	n := int64(len(r)) // one separator or newline per field
	for i := range r {
		v := &r[i]
		switch {
		case v.Kind == KindString:
			n += int64(len(v.S))
		case v.w != 0:
			n += int64(v.w)
		default:
			w := v.measure()
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

// Key renders the projection of r onto cols as a join/group key.
// The encoding is unambiguous: fields are length-prefixed.
//
// This is the legacy string path, kept as the reference semantics for the
// hashed key path (AppendKey/KeyHasher) the hot kernels use: two rows have
// equal Keys iff they have equal AppendKey encodings.
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

// AppendKey appends an unambiguous binary encoding of the projection of r
// onto cols to dst and returns the extended slice. Each field is written as
// its textual rendering followed by a fixed 4-byte little-endian length
// suffix, so encodings are equal exactly when the projected field renderings
// are equal — the same equality Key defines — while allocating nothing once
// dst has capacity. The hot kernels hash this encoding (see KeyHasher) and
// keep the bytes for collision verification.
func (r Row) AppendKey(dst []byte, cols []int) []byte {
	for _, c := range cols {
		start := len(dst)
		dst = r[c].AppendText(dst)
		n := uint32(len(dst) - start)
		dst = append(dst, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return dst
}
