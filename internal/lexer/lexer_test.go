package lexer

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func scanOK(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := Scan(src)
	if err != nil {
		t.Fatalf("Scan(%q): %v", src, err)
	}
	return toks
}

func TestScanAssignment(t *testing.T) {
	toks := scanOK(t, "a(i+1) = b(i) / 2.0\n")
	want := []Kind{Ident, LParen, Ident, Plus, IntLit, RParen, Assign,
		Ident, LParen, Ident, RParen, Slash, RealLit, Newline, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestScanKeywordsCaseInsensitive(t *testing.T) {
	toks := scanOK(t, "DO i = 1, N\nEnd Do\n")
	want := []Kind{KwDo, Ident, Assign, IntLit, Comma, Ident, Newline,
		KwEnd, KwDo, Newline, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestScanDirectiveLine(t *testing.T) {
	toks := scanOK(t, "!HPF$ distribute (block, cyclic) :: a, b\n")
	want := []Kind{HPFDirective, KwDistribute, LParen, KwBlock, Comma,
		KwCyclic, RParen, DoubleColon, Ident, Comma, Ident, Newline, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v (%q), want %v", i, got[i], toks[i].Text, want[i])
		}
	}
}

func TestDirectiveKeywordsOnlyInDirectives(t *testing.T) {
	// "block" outside a directive is a plain identifier.
	toks := scanOK(t, "block = 1\n")
	if toks[0].Kind != Ident || toks[0].Text != "block" {
		t.Errorf("got %v %q, want Ident \"block\"", toks[0].Kind, toks[0].Text)
	}
	// ...and inside a directive it is a keyword; the directive state resets
	// at the newline.
	toks = scanOK(t, "!hpf$ distribute a(block)\nblock = 1\n")
	sawKw, sawIdent := false, false
	for _, tk := range toks {
		if tk.Kind == KwBlock {
			sawKw = true
		}
		if tk.Kind == Ident && tk.Text == "block" {
			sawIdent = true
		}
	}
	if !sawKw || !sawIdent {
		t.Errorf("sawKw=%v sawIdent=%v, want both true", sawKw, sawIdent)
	}
}

func TestScanComments(t *testing.T) {
	toks := scanOK(t, "x = 1 ! trailing comment\n! whole-line comment\ny = 2\n")
	var idents []string
	for _, tk := range toks {
		if tk.Kind == Ident {
			idents = append(idents, tk.Text)
		}
	}
	if strings.Join(idents, ",") != "x,y" {
		t.Errorf("idents = %v, want [x y]", idents)
	}
}

func TestScanRelationalOperators(t *testing.T) {
	toks := scanOK(t, "a == b /= c < d <= e > f >= g\n")
	want := []Kind{Ident, Eq, Ident, Ne, Ident, Lt, Ident, Le, Ident, Gt,
		Ident, Ge, Ident, Newline, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestScanNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
		text string
	}{
		{"42", IntLit, "42"},
		{"3.25", RealLit, "3.25"},
		{"1.", RealLit, "1."},
		{"1e6", RealLit, "1e6"},
		{"2.5e-3", RealLit, "2.5e-3"},
		{"1d0", RealLit, "1e0"},
		{"7E+2", RealLit, "7e+2"},
	}
	for _, c := range cases {
		toks := scanOK(t, c.src+"\n")
		if toks[0].Kind != c.kind || toks[0].Text != c.text {
			t.Errorf("%q: got (%v, %q), want (%v, %q)",
				c.src, toks[0].Kind, toks[0].Text, c.kind, c.text)
		}
	}
}

func TestScanNumberFollowedByComma(t *testing.T) {
	toks := scanOK(t, "do i = 1, 10\n")
	if toks[3].Kind != IntLit || toks[3].Text != "1" {
		t.Errorf("got %v %q, want IntLit 1", toks[3].Kind, toks[3].Text)
	}
	if toks[5].Kind != IntLit || toks[5].Text != "10" {
		t.Errorf("got %v %q, want IntLit 10", toks[5].Kind, toks[5].Text)
	}
}

func TestScanPositions(t *testing.T) {
	toks := scanOK(t, "x = 1\ny = 2\n")
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("x at %d:%d, want 1:1", toks[0].Line, toks[0].Col)
	}
	var yTok Token
	for _, tk := range toks {
		if tk.Kind == Ident && tk.Text == "y" {
			yTok = tk
		}
	}
	if yTok.Line != 2 || yTok.Col != 1 {
		t.Errorf("y at %d:%d, want 2:1", yTok.Line, yTok.Col)
	}
}

func TestScanCollapsesBlankLines(t *testing.T) {
	toks := scanOK(t, "x = 1\n\n\n\ny = 2\n")
	n := 0
	for _, tk := range toks {
		if tk.Kind == Newline {
			n++
		}
	}
	if n != 2 {
		t.Errorf("got %d newline tokens, want 2", n)
	}
}

func TestScanErrorUnexpectedChar(t *testing.T) {
	_, err := Scan("x = @\n")
	if err == nil {
		t.Fatal("expected error for '@'")
	}
	le, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if le.Pos.Line != 1 || le.Pos.Col != 5 {
		t.Errorf("error at %s, want 1:5", le.Pos)
	}
}

func TestScanEOFWithoutTrailingNewline(t *testing.T) {
	toks := scanOK(t, "x = 1")
	got := kinds(toks)
	want := []Kind{Ident, Assign, IntLit, Newline, EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKindString(t *testing.T) {
	if KwDo.String() != "'do'" {
		t.Errorf("KwDo.String() = %q", KwDo.String())
	}
	if Kind(9999).String() == "" {
		t.Error("unknown kind should still produce a string")
	}
}
