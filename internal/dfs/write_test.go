package dfs

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"musketeer/internal/relation"
)

// tsvRoundTrip is what storing rel as text gave back: rel rendered as TSV and
// parsed by DecodeBytes, the parser of text users hand in. Two things that
// parser forgives are errors here, as they were when the filesystem stored
// text: a string cell holding a tab or a newline, which WriteRelation refused
// to render, and a line skipped as blank, since a writer's own text holds a
// row on every line and its reader skipped none.
func tsvRoundTrip(rel *relation.Relation) (*relation.Relation, error) {
	for _, row := range rel.Rows {
		for _, v := range row {
			if v.Kind == relation.KindString && strings.ContainsAny(v.S, "\t\n") {
				return nil, errors.New("holds a tab or newline")
			}
		}
	}
	back, err := relation.DecodeBytes(rel.Name, rel.EncodeBytes())
	if err == nil && back.NumRows() != rel.NumRows() {
		return nil, fmt.Errorf("%d of %d rows read back", back.NumRows(), rel.NumRows())
	}
	return back, err
}

// writeAndReadBack stores rel through WriteRelation and demands what the text
// round trip gives: the same rows, each cell of its column's kind and every
// cached width true, in a columnar file — or, where the round trip fails, a
// failed write and no file. The caller's rows must come through untouched.
// It returns both sides' errors.
func writeAndReadBack(t *testing.T, rel *relation.Relation) (got, want error) {
	t.Helper()
	before := slices.Clone(rel.Rows)
	for i, row := range before {
		before[i] = row.Clone()
	}
	back, want := tsvRoundTrip(rel)
	d := New()
	got = d.WriteRelation("in/t", rel)
	if fmt.Sprintf("%#v", rel.Rows) != fmt.Sprintf("%#v", before) { // NaN-proof, unlike DeepEqual
		t.Errorf("WriteRelation changed the caller's rows: %v, was %v", rel.Rows, before)
	}
	if want != nil {
		if got == nil {
			t.Errorf("stored a relation whose text does not read back (%v)", want)
		}
		if d.Exists("in/t") {
			t.Error("a refused relation was stored")
		}
		return got, want
	}
	if got != nil {
		t.Fatalf("refused a relation whose text reads back: %v", got)
	}
	stored, err := d.ReadRelation("in/t")
	if err != nil {
		t.Fatal(err)
	}
	if stored.Fingerprint() != back.Fingerprint() || !stored.Schema.Equal(back.Schema) {
		t.Errorf("stored %v, the text reads back as %v", stored.Rows, back.Rows)
	}
	for i, row := range stored.Rows {
		for j, v := range row {
			if v.Kind != stored.Schema.Cols[j].Kind {
				t.Errorf("row %d column %d holds a %s", i, j, v.Kind)
			}
		}
	}
	if err := relation.CheckWidths(stored); err != nil {
		t.Error(err)
	}
	return nil, nil
}

// TestWriteRelationStoresWhatTSVReadsBack: a columnar file keeps whatever the
// writer is handed, so WriteRelation must hand it what the relation's text
// would have parsed to. A ragged row, and a cell whose text does not parse as
// its column's kind, fail the write, naming relation, row and column, with
// the parser's own words; a cell of another kind whose text parses is stored
// as parsed; the float edge cases survive.
func TestWriteRelationStoresWhatTSVReadsBack(t *testing.T) {
	ints := relation.NewSchema("a:int", "b:int")
	floats := relation.NewSchema("a:int", "f:float")
	strs := relation.NewSchema("a:int", "s:string")
	good := map[string]relation.Value{"b": relation.Int(2), "f": relation.Float(0.5), "s": relation.Str("s")}
	for _, c := range []struct {
		name   string
		schema relation.Schema
		cells  []relation.Value // the last row's, after a = 7
		where  string           // in the error; "" when the write succeeds
	}{
		{"short row", ints, nil, "row 2: row arity 1 != 2"},
		{"long row", ints, []relation.Value{relation.Int(2), relation.Int(3)}, "row 2: row arity 3 != 2"},
		{"int text in an int column", ints, []relation.Value{relation.Str("12")}, ""},
		{"float text in an int column", ints, []relation.Value{relation.Str("2.5")}, `row 2 column "b"`},
		{"fractional float in an int column", ints, []relation.Value{relation.Float(2.5)}, `row 2 column "b"`},
		{"integral float in an int column", ints, []relation.Value{relation.Float(3)}, ""},
		{"float text in a float column", floats, []relation.Value{relation.Str("1.5")}, ""},
		{"long float text in a float column", floats, []relation.Value{relation.Str("1.50")}, ""},
		{"word in a float column", floats, []relation.Value{relation.Str("x")}, `row 2 column "f"`},
		{"int in a string column", strs, []relation.Value{relation.Int(12)}, ""},
		{"float in a string column", strs, []relation.Value{relation.Float(2.5)}, ""},
		{"seven-digit int in a float column", floats, []relation.Value{relation.Int(1234567)}, ""},
		{"NaN", floats, []relation.Value{relation.Float(math.NaN())}, ""},
		{"+Inf", floats, []relation.Value{relation.Float(math.Inf(1))}, ""},
		{"-Inf", floats, []relation.Value{relation.Float(math.Inf(-1))}, ""},
		{"-0", floats, []relation.Value{relation.Float(math.Copysign(0, -1))}, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			rel := relation.New("t", c.schema)
			for i := int64(0); i < 2; i++ {
				rel.MustAppend(relation.Row{relation.Int(i), good[c.schema.Cols[1].Name]})
			}
			rel.Rows = append(rel.Rows, append(relation.Row{relation.Int(7)}, c.cells...))
			got, want := writeAndReadBack(t, rel)
			if (want != nil) != (c.where != "") {
				t.Fatalf("the text round trip gives %v", want)
			}
			if want == nil {
				return
			}
			for _, part := range []string{`relation "t"`, c.where, strings.TrimPrefix(want.Error(), "relation t: ")} {
				if !strings.Contains(got.Error(), part) {
					t.Errorf("error %q does not hold %q", got, part)
				}
			}
		})
	}
}

// cellPool holds the cells a column of another kind could mistake: numbers at
// the codecs' edges, and strings that do, almost, or do not parse.
var cellPool = []relation.Value{
	relation.Int(0), relation.Int(-7), relation.Int(999999), relation.Int(1234567), relation.Int(math.MinInt64),
	relation.Float(0), relation.Float(math.Copysign(0, -1)), relation.Float(2.5), relation.Float(3),
	relation.Float(1234567), relation.Float(1e21), relation.Float(5e-324),
	relation.Float(math.NaN()), relation.Float(math.Inf(1)), relation.Float(math.Inf(-1)),
	relation.Str(""), relation.Str("12"), relation.Str("007"), relation.Str("+7"), relation.Str("-0"),
	relation.Str("1.5"), relation.Str("1.50"), relation.Str("2.5"), relation.Str("1e3"), relation.Str("1e400"),
	relation.Str("NaN"), relation.Str("inf"), relation.Str("0x1p-2"), relation.Str("x"),
	relation.Str("a\tb"), relation.Str("a\nb"),
}

// FuzzWriteRelation drives WriteRelation and ReadRelation over relations of
// random column kinds whose rows are of random arity and whose cells are of
// random kinds — cellPool's, and the fuzzer's own i, x and s — against the
// text round trip: the same relation read back, or an error on both sides;
// never a panic.
func FuzzWriteRelation(f *testing.F) {
	f.Add([]byte{2, 0, 1, 3, 0, 16, 1, 20}, int64(12), 2.5, "12")
	f.Add([]byte{1, 1, 4, 2, 0, 31, 0, 32, 0, 33}, int64(1234567), math.Inf(-1), "1.5")
	f.Add([]byte{3, 2, 1, 0, 2, 1, 33, 32, 31, 0, 32, 31}, int64(-1), math.Copysign(0, -1), "")
	f.Add([]byte{1, 0, 3, 1, 15, 0, 30}, int64(0), math.NaN(), "a\tb")
	f.Add([]byte{1, 2, 1, 0}, int64(0), 0.0, "") // no cells: an empty line, one string column's blank row
	f.Fuzz(func(t *testing.T, shape []byte, i int64, x float64, s string) {
		next := func(n int) int {
			if len(shape) == 0 {
				return 0
			}
			b := shape[0]
			shape = shape[1:]
			return int(b) % n
		}
		pool := append(cellPool[:len(cellPool):len(cellPool)], relation.Int(i), relation.Float(x), relation.Str(s))
		specs := make([]string, next(4))
		for c := range specs {
			specs[c] = fmt.Sprintf("c%d:%s", c, []string{"int", "float", "string"}[next(3)])
		}
		rel := relation.New("fz", relation.NewSchema(specs...))
		for rows := next(5); rows > 0; rows-- {
			arity := len(specs)
			switch next(8) { // one row in four is ragged
			case 0:
				arity--
			case 1:
				arity++
			}
			row := relation.Row{}
			for c := 0; c < arity; c++ {
				row = append(row, pool[next(len(pool))])
			}
			rel.Rows = append(rel.Rows, row)
		}
		writeAndReadBack(t, rel)
	})
}
