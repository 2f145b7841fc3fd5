package lexer

import (
	"strings"
	"unicode"

	"phpf/internal/diag"
)

// Error is a lexical error: a positioned diagnostic with stage "lex" and
// code diag.CodeLex.
type Error = diag.Diagnostic

// Lexer scans source text into tokens.
type Lexer struct {
	src         string
	pos         int
	line, col   int
	inDirective bool // inside a !hpf$ line: recognize directive keywords
	atLineStart bool
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1, atLineStart: true}
}

// Scan tokenizes the entire input. Consecutive newlines are collapsed into a
// single Newline token and a final Newline is guaranteed before EOF.
func Scan(src string) ([]Token, error) {
	lx := New(src)
	toks := make([]Token, 0, scanCap(src))
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == Newline && len(toks) > 0 && toks[len(toks)-1].Kind == Newline {
			continue
		}
		if t.Kind == EOF {
			if len(toks) == 0 || toks[len(toks)-1].Kind != Newline {
				toks = append(toks, Token{Kind: Newline, Line: t.Line, Col: t.Col})
			}
			toks = append(toks, t)
			return toks, nil
		}
		toks = append(toks, t)
	}
}

// scanCap sizes Scan's token slice: the figures and kernels take 1.83 to 2.55
// source bytes per token, so room for a token per 5/3 bytes means none
// regrows it (TestScanCapacity).
func scanCap(src string) int { return len(src)*3/5 + 8 }

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peekAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) errorf(line, col int, format string, args ...any) error {
	return diag.Errorf("lex", diag.CodeLex, diag.Pos{Line: line, Col: col}, format, args...)
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	for {
		c := lx.peek()
		switch {
		case c == 0:
			return Token{Kind: EOF, Line: lx.line, Col: lx.col}, nil
		case c == '\n':
			t := Token{Kind: Newline, Line: lx.line, Col: lx.col}
			lx.advance()
			lx.inDirective = false
			lx.atLineStart = true
			return t, nil
		case c == ' ' || c == '\t' || c == '\r':
			lx.advance()
		case c == '!':
			// Comment or directive. A directive is "!hpf$" at the start of
			// the statement (only whitespace before it on the line).
			if lx.atLineStart && lx.isDirectiveStart() {
				t := Token{Kind: HPFDirective, Text: "!hpf$", Line: lx.line, Col: lx.col}
				for i := 0; i < 5; i++ {
					lx.advance()
				}
				lx.inDirective = true
				lx.atLineStart = false
				return t, nil
			}
			for lx.peek() != 0 && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			lx.atLineStart = false
			return lx.scanToken()
		}
	}
}

func (lx *Lexer) isDirectiveStart() bool {
	if lx.pos+5 > len(lx.src) {
		return false
	}
	return strings.EqualFold(lx.src[lx.pos:lx.pos+5], "!hpf$")
}

func (lx *Lexer) scanToken() (Token, error) {
	line, col := lx.line, lx.col
	c := lx.peek()
	switch {
	case isIdentStart(c):
		return lx.scanIdent(line, col), nil
	case isDigit(c):
		return lx.scanNumber(line, col)
	}
	lx.advance()
	mk := func(k Kind, text string) (Token, error) {
		return Token{Kind: k, Text: text, Line: line, Col: col}, nil
	}
	switch c {
	case '(':
		return mk(LParen, "(")
	case ')':
		return mk(RParen, ")")
	case ',':
		return mk(Comma, ",")
	case '+':
		return mk(Plus, "+")
	case '-':
		return mk(Minus, "-")
	case '*':
		return mk(Star, "*")
	case ':':
		if lx.peek() == ':' {
			lx.advance()
			return mk(DoubleColon, "::")
		}
		return mk(Colon, ":")
	case '=':
		if lx.peek() == '=' {
			lx.advance()
			return mk(Eq, "==")
		}
		return mk(Assign, "=")
	case '/':
		if lx.peek() == '=' {
			lx.advance()
			return mk(Ne, "/=")
		}
		return mk(Slash, "/")
	case '<':
		if lx.peek() == '=' {
			lx.advance()
			return mk(Le, "<=")
		}
		return mk(Lt, "<")
	case '>':
		if lx.peek() == '=' {
			lx.advance()
			return mk(Ge, ">=")
		}
		return mk(Gt, ">")
	}
	return Token{}, lx.errorf(line, col, "unexpected character %q", c)
}

func (lx *Lexer) scanIdent(line, col int) Token {
	start := lx.pos
	for isIdentPart(lx.peek()) {
		lx.advance()
	}
	text := strings.ToLower(lx.src[start:lx.pos])
	if lx.inDirective {
		if k, ok := directiveKeywords[text]; ok {
			return Token{Kind: k, Text: text, Line: line, Col: col}
		}
	}
	if k, ok := keywords[text]; ok {
		return Token{Kind: k, Text: text, Line: line, Col: col}
	}
	return Token{Kind: Ident, Text: text, Line: line, Col: col}
}

func (lx *Lexer) scanNumber(line, col int) (Token, error) {
	start := lx.pos
	for isDigit(lx.peek()) {
		lx.advance()
	}
	isReal := false
	// Fractional part. A '.' is part of the number only when followed by a
	// digit or when the number ends the numeric token (e.g. "1.").
	if lx.peek() == '.' {
		isReal = true
		lx.advance()
		for isDigit(lx.peek()) {
			lx.advance()
		}
	}
	// Exponent part: e or d, optional sign, digits.
	if p := lx.peek(); p == 'e' || p == 'E' || p == 'd' || p == 'D' {
		q := lx.peekAt(1)
		r := lx.peekAt(2)
		if isDigit(q) || ((q == '+' || q == '-') && isDigit(r)) {
			isReal = true
			lx.advance()
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
			for isDigit(lx.peek()) {
				lx.advance()
			}
		}
	}
	text := strings.ToLower(lx.src[start:lx.pos])
	kind := IntLit
	if isReal {
		kind = RealLit
		text = strings.Replace(text, "d", "e", 1)
	}
	return Token{Kind: kind, Text: text, Line: line, Col: col}, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || isDigit(c)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
