package frontends

import (
	"testing"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

func lexAll(t *testing.T, src string) []Token {
	t.Helper()
	lex := NewLexer(src)
	var toks []Token
	for {
		tok, err := lex.Next()
		if err != nil {
			t.Fatalf("lex %q: %v", src, err)
		}
		if tok.Kind == TokEOF {
			return toks
		}
		toks = append(toks, tok)
	}
}

func TestLexerBasics(t *testing.T) {
	toks := lexAll(t, `SELECT id, price FROM t WHERE x >= 1.5 AND s == "hi"; # comment`)
	kinds := []TokKind{TokIdent, TokIdent, TokSymbol, TokIdent, TokIdent, TokIdent, TokIdent, TokIdent, TokSymbol, TokNumber, TokIdent, TokIdent, TokSymbol, TokString, TokSymbol}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d (%q) kind = %v, want %v", i, toks[i].Text, toks[i].Kind, k)
		}
	}
}

func TestLexerQualifiedAndNumbers(t *testing.T) {
	toks := lexAll(t, "locs.id 0.85 -3 1e6 'str'")
	if toks[0].Text != "locs.id" || toks[0].Kind != TokIdent {
		t.Errorf("qualified ident = %v", toks[0])
	}
	if toks[1].Kind != TokNumber || toks[2].Kind != TokNumber || toks[3].Kind != TokNumber {
		t.Errorf("numbers = %v", toks[1:4])
	}
	if toks[4].Kind != TokString || toks[4].Text != "str" {
		t.Errorf("single-quoted string = %v", toks[4])
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "\"multi\nline\"", "@"} {
		lex := NewLexer(src)
		var err error
		for i := 0; i < 10; i++ {
			var tok Token
			tok, err = lex.Next()
			if err != nil || tok.Kind == TokEOF {
				break
			}
		}
		if err == nil {
			t.Errorf("lex %q: no error", src)
		}
	}
}

func TestLexerComments(t *testing.T) {
	toks := lexAll(t, "# full line\nx # trailing\ny")
	if len(toks) != 2 || toks[0].Text != "x" || toks[1].Text != "y" {
		t.Errorf("comments not skipped: %v", toks)
	}
	if toks[1].Line != 3 {
		t.Errorf("line tracking: %d", toks[1].Line)
	}
}

func TestPeekAcceptExpect(t *testing.T) {
	lex := NewLexer("FROM table ;")
	p1, _ := lex.Peek()
	p2, _ := lex.Peek()
	if p1 != p2 {
		t.Error("double peek differs")
	}
	if !lex.Accept(TokIdent, "from") {
		t.Error("case-insensitive accept failed")
	}
	if lex.Accept(TokIdent, "nope") {
		t.Error("accept consumed wrong token")
	}
	if _, err := lex.Expect(TokIdent, "table"); err != nil {
		t.Error(err)
	}
	if _, err := lex.Expect(TokSymbol, ","); err == nil {
		t.Error("expect should fail on ';'")
	}
}

func TestParseLiteral(t *testing.T) {
	v, err := ParseLiteral(Token{Kind: TokNumber, Text: "42"})
	if err != nil || !v.Equal(relation.Int(42)) {
		t.Errorf("int literal = %v, %v", v, err)
	}
	v, err = ParseLiteral(Token{Kind: TokNumber, Text: "0.85"})
	if err != nil || !v.Equal(relation.Float(0.85)) {
		t.Errorf("float literal = %v, %v", v, err)
	}
	v, err = ParseLiteral(Token{Kind: TokString, Text: "x"})
	if err != nil || !v.Equal(relation.Str("x")) {
		t.Errorf("string literal = %v, %v", v, err)
	}
	if _, err := ParseLiteral(Token{Kind: TokSymbol, Text: ";"}); err == nil {
		t.Error("symbol accepted as literal")
	}
}

func TestStripQualifier(t *testing.T) {
	if StripQualifier("locs.id") != "id" {
		t.Error("qualifier not stripped")
	}
	if StripQualifier("id") != "id" {
		t.Error("bare name changed")
	}
}

// colOperand is the simplest language operand: a bare column or a literal.
func colOperand(lex *Lexer) func() (ir.Operand, error) {
	return func() (ir.Operand, error) {
		t, err := lex.Next()
		if err != nil {
			return ir.Operand{}, err
		}
		if t.Kind == TokIdent {
			return ir.ColRef(t.Text), nil
		}
		v, err := ParseLiteral(t)
		return ir.LitOp(v), err
	}
}

func TestParsePredicate(t *testing.T) {
	lex := NewLexer(`a = 1 OR b < 2 AND c != "x" ;`)
	got, err := ParsePredicate(lex, "t", colOperand(lex))
	if err != nil {
		t.Fatal(err)
	}
	want := ir.Or(
		ir.Cmp(ir.ColRef("a"), ir.CmpEq, ir.LitOp(relation.Int(1))),
		ir.And(
			ir.Cmp(ir.ColRef("b"), ir.CmpLt, ir.LitOp(relation.Int(2))),
			ir.Cmp(ir.ColRef("c"), ir.CmpNe, ir.LitOp(relation.Str("x")))))
	if got.String() != want.String() {
		t.Errorf("parsed %s, want %s (AND binds tighter than OR)", got, want)
	}
	if tok, _ := lex.Next(); tok.Text != ";" {
		t.Errorf("predicate consumed past its end: next token %q", tok.Text)
	}

	for src, want := range map[string]string{
		`a ( 1`:       `t: line 1: expected comparison, got "("`,
		`a = 1 "open`: `line 1: unterminated string`, // not swallowed by the AND/OR look-ahead
	} {
		lex := NewLexer(src)
		if _, err := ParsePredicate(lex, "t", colOperand(lex)); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %s", src, err, want)
		}
	}
}

func TestAggFunc(t *testing.T) {
	for name, want := range map[string]ir.AggFunc{"sum": ir.AggSum, "Count": ir.AggCount, "MIN": ir.AggMin, "max": ir.AggMax, "avg": ir.AggAvg} {
		if got, ok := AggFunc(name); !ok || got != want {
			t.Errorf("AggFunc(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := AggFunc("median"); ok {
		t.Error("AggFunc accepted an unknown aggregate")
	}
}
