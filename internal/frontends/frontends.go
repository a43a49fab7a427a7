// Package frontends holds what Musketeer's front-end frameworks share: the
// table catalog that binds workflow-level relation names to DFS paths and
// schemas, and the lexer, predicate grammar and aggregate-function table
// used by the textual DSL parsers (HiveQL subset, Pig Latin, BEER, and the
// GAS DSL).
package frontends

import (
	"fmt"
	"strings"
	"unicode"

	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// Table is one catalogued base relation.
type Table struct {
	Path   string
	Schema relation.Schema
}

// Catalog maps base-table names to their storage location and schema.
// Front-ends resolve FROM/JOIN references against it; unresolved names must
// refer to relations defined earlier in the same workflow.
type Catalog map[string]Table

// TokKind classifies lexer tokens.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokString
	TokSymbol
)

// Token is one lexeme with its source line for error messages.
type Token struct {
	Kind TokKind
	Text string
	Line int
}

// Lexer splits DSL source into tokens. Symbols cover the operators used by
// all three textual front-ends: = == != < <= > >= ( ) { } [ ] , ; * .
type Lexer struct {
	src  []rune
	pos  int
	line int
	// Peeked holds a pushed-back token.
	peeked *Token
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: []rune(src), line: 1}
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if l.peeked != nil {
		t := *l.peeked
		l.peeked = nil
		return t, nil
	}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case unicode.IsSpace(c):
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return Token{Kind: TokEOF, Line: l.line}, nil

scan:
	c := l.src[l.pos]
	start := l.pos
	switch {
	case unicode.IsLetter(c) || c == '_':
		for l.pos < len(l.src) && (unicode.IsLetter(l.src[l.pos]) || unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '_' || l.src[l.pos] == '.' || l.src[l.pos] == '/') {
			l.pos++
		}
		return Token{Kind: TokIdent, Text: string(l.src[start:l.pos]), Line: l.line}, nil
	case unicode.IsDigit(c) || (c == '-' && l.pos+1 < len(l.src) && unicode.IsDigit(l.src[l.pos+1])):
		l.pos++
		for l.pos < len(l.src) && (unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '.' || l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
			((l.src[l.pos] == '-' || l.src[l.pos] == '+') && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'))) {
			l.pos++
		}
		return Token{Kind: TokNumber, Text: string(l.src[start:l.pos]), Line: l.line}, nil
	case c == '"' || c == '\'':
		quote := c
		l.pos++
		var b strings.Builder
		for l.pos < len(l.src) && l.src[l.pos] != quote {
			if l.src[l.pos] == '\n' {
				return Token{}, fmt.Errorf("line %d: unterminated string", l.line)
			}
			b.WriteRune(l.src[l.pos])
			l.pos++
		}
		if l.pos >= len(l.src) {
			return Token{}, fmt.Errorf("line %d: unterminated string", l.line)
		}
		l.pos++
		return Token{Kind: TokString, Text: b.String(), Line: l.line}, nil
	case strings.ContainsRune("=!<>", c):
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
		}
		return Token{Kind: TokSymbol, Text: string(l.src[start:l.pos]), Line: l.line}, nil
	case strings.ContainsRune("(){}[],;*", c):
		l.pos++
		return Token{Kind: TokSymbol, Text: string(c), Line: l.line}, nil
	default:
		return Token{}, fmt.Errorf("line %d: unexpected character %q", l.line, c)
	}
}

// Peek returns the next token without consuming it.
func (l *Lexer) Peek() (Token, error) {
	if l.peeked != nil {
		return *l.peeked, nil
	}
	t, err := l.Next()
	if err != nil {
		return t, err
	}
	l.peeked = &t
	return t, nil
}

// Expect consumes the next token and checks it is the given symbol (or a
// case-insensitive keyword when kind is TokIdent).
func (l *Lexer) Expect(kind TokKind, text string) (Token, error) {
	t, err := l.Next()
	if err != nil {
		return t, err
	}
	if t.Kind != kind || !strings.EqualFold(t.Text, text) {
		return t, fmt.Errorf("line %d: expected %q, got %q", t.Line, text, t.Text)
	}
	return t, nil
}

// Accept consumes the next token if it matches; reports whether it did.
func (l *Lexer) Accept(kind TokKind, text string) bool {
	t, err := l.Peek()
	if err != nil {
		return false
	}
	if t.Kind == kind && strings.EqualFold(t.Text, text) {
		l.peeked = nil
		return true
	}
	return false
}

// IsKeyword reports whether tok is the given case-insensitive keyword.
func IsKeyword(t Token, kw string) bool {
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}

// ParseLiteral converts a number or string token into a Value. Numbers
// containing '.', 'e' or 'E' become floats, others ints.
func ParseLiteral(t Token) (relation.Value, error) {
	switch t.Kind {
	case TokString:
		return relation.Str(t.Text), nil
	case TokNumber:
		if strings.ContainsAny(t.Text, ".eE") {
			return relation.ParseValue(relation.KindFloat, t.Text)
		}
		return relation.ParseValue(relation.KindInt, t.Text)
	default:
		return relation.Value{}, fmt.Errorf("line %d: expected literal, got %q", t.Line, t.Text)
	}
}

// StripQualifier removes a leading "rel." qualifier from a column
// reference (Hive allows locs.id; the IR uses bare column names).
func StripQualifier(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// AggFunc resolves a case-insensitive aggregate-function name.
func AggFunc(name string) (ir.AggFunc, bool) {
	switch strings.ToUpper(name) {
	case "SUM":
		return ir.AggSum, true
	case "COUNT":
		return ir.AggCount, true
	case "MIN":
		return ir.AggMin, true
	case "MAX":
		return ir.AggMax, true
	case "AVG":
		return ir.AggAvg, true
	}
	return 0, false
}

// ParsePredicate parses the predicate grammar the textual front-ends share:
// OR-separated conjunctions of comparisons, AND binding tighter than OR.
// operand reads one side of a comparison in the language's own syntax; lang
// prefixes the grammar's error messages.
func ParsePredicate(lex *Lexer, lang string, operand func() (ir.Operand, error)) (*ir.Pred, error) {
	left, err := parseConjunction(lex, lang, operand)
	if err != nil {
		return nil, err
	}
	for lex.Accept(TokIdent, "OR") {
		right, err := parseConjunction(lex, lang, operand)
		if err != nil {
			return nil, err
		}
		left = ir.Or(left, right)
	}
	return left, nil
}

func parseConjunction(lex *Lexer, lang string, operand func() (ir.Operand, error)) (*ir.Pred, error) {
	left, err := parseComparison(lex, lang, operand)
	if err != nil {
		return nil, err
	}
	for {
		// Peek, not Accept: a lexer error after a comparison is reported
		// here, at the character that caused it.
		t, err := lex.Peek()
		if err != nil {
			return nil, err
		}
		if !IsKeyword(t, "AND") {
			return left, nil
		}
		lex.Next()
		right, err := parseComparison(lex, lang, operand)
		if err != nil {
			return nil, err
		}
		left = ir.And(left, right)
	}
}

func parseComparison(lex *Lexer, lang string, operand func() (ir.Operand, error)) (*ir.Pred, error) {
	lhs, err := operand()
	if err != nil {
		return nil, err
	}
	opTok, err := lex.Next()
	if err != nil {
		return nil, err
	}
	var cmp ir.CmpOp
	switch opTok.Text {
	case "=", "==":
		cmp = ir.CmpEq
	case "!=":
		cmp = ir.CmpNe
	case "<":
		cmp = ir.CmpLt
	case "<=":
		cmp = ir.CmpLe
	case ">":
		cmp = ir.CmpGt
	case ">=":
		cmp = ir.CmpGe
	default:
		return nil, fmt.Errorf("%s: line %d: expected comparison, got %q", lang, opTok.Line, opTok.Text)
	}
	rhs, err := operand()
	if err != nil {
		return nil, err
	}
	return ir.Cmp(lhs, cmp, rhs), nil
}
