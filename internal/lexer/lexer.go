package lexer

import (
	"strings"
	"unicode"

	"phpf/internal/diag"
)

// Error is a lexical error: a positioned diagnostic with stage "lex" and
// code diag.CodeLex.
type Error = diag.Diagnostic

// Stream is the token sequence of a source, pulled one token at a time:
// consecutive newlines are collapsed into a single Newline token, and a
// Newline always comes before EOF. After EOF, or after a lexical error, every
// token is EOF.
type Stream struct {
	src         string
	pos         int
	line, col   int
	inDirective bool // inside a !hpf$ line: recognize directive keywords
	atLineStart bool
	last        Kind // kind of the token Next returned last (-1 before the first)
	err         error
}

// NewStream returns the stream of src's tokens.
func NewStream(src string) *Stream {
	return &Stream{src: src, line: 1, col: 1, atLineStart: true, last: -1}
}

// Next returns the next token. A lexical error ends the stream: Next returns
// EOF from then on, and Err reports the error.
func (s *Stream) Next() Token {
	for s.err == nil && s.last != EOF {
		t, err := s.scan()
		switch {
		case err != nil:
			s.err = err
		case t.Kind == Newline && s.last == Newline:
			continue
		case t.Kind == EOF && s.last != Newline:
			t.Kind = Newline
			fallthrough
		default:
			s.last = t.Kind
			return t
		}
	}
	return Token{Kind: EOF, Line: s.line, Col: s.col}
}

// Err drains the stream and returns its lexical error, if any: a source with
// one anywhere is rejected, however much of it was read.
func (s *Stream) Err() error {
	for s.err == nil && s.last != EOF {
		s.Next()
	}
	return s.err
}

// Scan tokenizes the entire input: it collects the stream of src.
func Scan(src string) ([]Token, error) {
	s := NewStream(src)
	var toks []Token
	for {
		t := s.Next()
		if s.err != nil {
			return nil, s.err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (s *Stream) peek() byte {
	if s.pos >= len(s.src) {
		return 0
	}
	return s.src[s.pos]
}

func (s *Stream) peekAt(off int) byte {
	if s.pos+off >= len(s.src) {
		return 0
	}
	return s.src[s.pos+off]
}

func (s *Stream) advance() byte {
	c := s.src[s.pos]
	s.pos++
	if c == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	return c
}

func (s *Stream) errorf(line, col int, format string, args ...any) error {
	return diag.Errorf("lex", diag.CodeLex, diag.Pos{Line: line, Col: col}, format, args...)
}

// scan returns the next token of the source.
func (s *Stream) scan() (Token, error) {
	for {
		c := s.peek()
		switch {
		case c == 0:
			return Token{Kind: EOF, Line: s.line, Col: s.col}, nil
		case c == '\n':
			t := Token{Kind: Newline, Line: s.line, Col: s.col}
			s.advance()
			s.inDirective = false
			s.atLineStart = true
			return t, nil
		case c == ' ' || c == '\t' || c == '\r':
			s.advance()
		case c == '!':
			// Comment or directive. A directive is "!hpf$" at the start of
			// the statement (only whitespace before it on the line).
			if s.atLineStart && s.isDirectiveStart() {
				t := Token{Kind: HPFDirective, Text: "!hpf$", Line: s.line, Col: s.col}
				for i := 0; i < 5; i++ {
					s.advance()
				}
				s.inDirective = true
				s.atLineStart = false
				return t, nil
			}
			for s.peek() != 0 && s.peek() != '\n' {
				s.advance()
			}
		default:
			s.atLineStart = false
			return s.scanToken()
		}
	}
}

func (s *Stream) isDirectiveStart() bool {
	if s.pos+5 > len(s.src) {
		return false
	}
	return strings.EqualFold(s.src[s.pos:s.pos+5], "!hpf$")
}

func (s *Stream) scanToken() (Token, error) {
	line, col := s.line, s.col
	c := s.peek()
	switch {
	case isIdentStart(c):
		return s.scanIdent(line, col), nil
	case isDigit(c):
		return s.scanNumber(line, col)
	}
	s.advance()
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
		if s.peek() == ':' {
			s.advance()
			return mk(DoubleColon, "::")
		}
		return mk(Colon, ":")
	case '=':
		if s.peek() == '=' {
			s.advance()
			return mk(Eq, "==")
		}
		return mk(Assign, "=")
	case '/':
		if s.peek() == '=' {
			s.advance()
			return mk(Ne, "/=")
		}
		return mk(Slash, "/")
	case '<':
		if s.peek() == '=' {
			s.advance()
			return mk(Le, "<=")
		}
		return mk(Lt, "<")
	case '>':
		if s.peek() == '=' {
			s.advance()
			return mk(Ge, ">=")
		}
		return mk(Gt, ">")
	}
	return Token{}, s.errorf(line, col, "unexpected character %q", c)
}

func (s *Stream) scanIdent(line, col int) Token {
	start := s.pos
	for isIdentPart(s.peek()) {
		s.advance()
	}
	text := strings.ToLower(s.src[start:s.pos])
	if s.inDirective {
		if k, ok := directiveKeywords[text]; ok {
			return Token{Kind: k, Text: text, Line: line, Col: col}
		}
	}
	if k, ok := keywords[text]; ok {
		return Token{Kind: k, Text: text, Line: line, Col: col}
	}
	return Token{Kind: Ident, Text: text, Line: line, Col: col}
}

func (s *Stream) scanNumber(line, col int) (Token, error) {
	start := s.pos
	for isDigit(s.peek()) {
		s.advance()
	}
	isReal := false
	// Fractional part. A '.' is part of the number only when followed by a
	// digit or when the number ends the numeric token (e.g. "1.").
	if s.peek() == '.' {
		isReal = true
		s.advance()
		for isDigit(s.peek()) {
			s.advance()
		}
	}
	// Exponent part: e or d, optional sign, digits.
	if p := s.peek(); p == 'e' || p == 'E' || p == 'd' || p == 'D' {
		q := s.peekAt(1)
		r := s.peekAt(2)
		if isDigit(q) || ((q == '+' || q == '-') && isDigit(r)) {
			isReal = true
			s.advance()
			if s.peek() == '+' || s.peek() == '-' {
				s.advance()
			}
			for isDigit(s.peek()) {
				s.advance()
			}
		}
	}
	text := strings.ToLower(s.src[start:s.pos])
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
