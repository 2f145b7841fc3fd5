package parser

import (
	"errors"
	"testing"

	"phpf/internal/lexer"
	"phpf/internal/programs"
)

// lexAfterParseError has a parse error on line 2 ("= 1") and a lex error on
// line 5 ('@'): the lex error is the one reported.
const lexAfterParseError = "program t\n= 1\nreal x\nx = 2\nx = @\nend\n"

// sameDiag reports whether err and want are equal diagnostics.
func sameDiag(err, want error) bool {
	var a, b *Error
	return errors.As(err, &a) && errors.As(want, &b) && *a == *b
}

// TestLexErrorWinsOverEarlierParseError: Parse scans the whole source even
// after its parse stopped, and reports Scan's error.
func TestLexErrorWinsOverEarlierParseError(t *testing.T) {
	_, lerr := lexer.Scan(lexAfterParseError)
	_, err := Parse(lexAfterParseError)
	var de *Error
	if !errors.As(lerr, &de) || de.Stage != "lex" || de.Pos.Line != 5 {
		t.Fatalf("Scan: %v, want a lex error on line 5", lerr)
	}
	if !sameDiag(err, lerr) {
		t.Fatalf("Parse: %v, want Scan's %v", err, lerr)
	}
	// The parse error alone, without the lex error, is on line 2.
	if _, err := Parse("program t\n= 1\nend\n"); !errors.As(err, &de) || de.Stage != "parse" || de.Pos.Line != 2 {
		t.Fatalf("Parse without the lex error: %v, want a parse error on line 2", err)
	}
}

// FuzzParse asserts the parser's robustness contract on arbitrary input: it
// never panics, and every rejection is a position-bearing *diag.Diagnostic
// (line >= 1) from the lexer or parser, never a bare fmt error. Parse pulls
// its tokens from a stream, so it also holds the stream to lexer.Scan: Parse
// fails with a lex diagnostic exactly when Scan fails, and with Scan's
// diagnostic, wherever the parse itself stopped.
func FuzzParse(f *testing.F) {
	f.Add(programs.TOMCATV(17, 2))
	f.Add(programs.DGEFA(16))
	f.Add(programs.APPSP(6, 6, 6, 1, true))
	f.Add(programs.APPSP(6, 6, 6, 1, false))
	f.Add(programs.Smooth(64, 2))
	f.Add(programs.Histogram(64, 16, 2))
	f.Add(programs.DotSweep(16, 12))
	for _, src := range programs.Figures {
		f.Add(src)
	}
	f.Add("program t\n(((\nend\n")
	f.Add("program t\ndo i = 1, 10\nend\n")
	f.Add("!hpf$ align b(i) with a(i+1)\n")
	f.Add("program t\nif (x .gt. 0) goto 10\n10 continue\nend\n")
	// A directive implying a rank-8 processor grid (above dist.MaxRank).
	f.Add("program t\nreal a(2,2,2,2,2,2,2,2)\n!hpf$ processors p(2,2,2,2,2,2,2,2)\n" +
		"!hpf$ distribute (block,block,block,block,block,block,block,block) :: a\na(1,1,1,1,1,1,1,1) = 1.0\nend\n")
	// A parse error on line 2 before a lex error on line 5.
	f.Add(lexAfterParseError)

	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if _, lerr := lexer.Scan(src); lerr != nil {
			if !sameDiag(err, lerr) {
				t.Fatalf("Scan fails with %v, Parse with %v", lerr, err)
			}
		} else if de := (*Error)(nil); errors.As(err, &de) && de.Stage == "lex" {
			t.Fatalf("Parse fails with lex diagnostic %v, Scan succeeds", err)
		}
		if err != nil {
			var de *Error // == *lexer.Error == *diag.Diagnostic
			if !errors.As(err, &de) {
				t.Fatalf("parse error is not a positioned *diag.Diagnostic: %T %v", err, err)
			}
			if de.Pos.Line < 1 {
				t.Fatalf("front-end error with non-positive line: %v", de)
			}
			if de.Stage != "lex" && de.Stage != "parse" {
				t.Fatalf("front-end error with stage %q, want lex or parse: %v", de.Stage, de)
			}
			return
		}
		if p == nil {
			t.Fatal("nil program with nil error")
		}
	})
}
