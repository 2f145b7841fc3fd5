package parser

import (
	"errors"
	"testing"

	"phpf/internal/programs"
)

// FuzzParse asserts the parser's robustness contract on arbitrary input: it
// never panics, and every rejection is a position-bearing *diag.Diagnostic
// (line >= 1) from the lexer or parser, never a bare fmt error.
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

	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
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
