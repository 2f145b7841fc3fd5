// Package parser builds an ast.Program from mini-Fortran/HPF source text.
//
// Grammar (line oriented; keywords case-insensitive):
//
//	program    = "program" ident NL { decl | directive } { stmt } "end" NL
//	decl       = "parameter" ident "=" int NL
//	           | ("integer"|"real") declitem { "," declitem } NL
//	declitem   = ident [ "(" expr { "," expr } ")" ]
//	directive  = "!hpf$" ( processors | distribute | align | loopdir ) NL
//	stmt       = assign | do | if | ifgoto | goto | continue | redistribute
//	assign     = ref "=" expr NL
//	do         = "do" ident "=" expr "," expr [ "," expr ] NL {stmt} enddo NL
//	if         = "if" "(" expr ")" "then" NL {stmt} ["else" NL {stmt}] endif NL
//	ifgoto     = "if" "(" expr ")" "goto" int NL
//	goto       = "goto" int NL
//	continue   = int "continue" NL
//	expr       = orterm  { "or"  orterm }
//	orterm     = andterm { "and" andterm }
//	andterm    = ["not"] rel
//	rel        = arith [ relop arith ]
//	arith      = term { ("+"|"-") term }
//	term       = unary { ("*"|"/") unary }
//	unary      = ["-"] primary
//	primary    = number | ref | call | "(" expr ")"
package parser

import (
	"strconv"

	"phpf/internal/ast"
	"phpf/internal/diag"
	"phpf/internal/lexer"
)

// Error is a parse error: a positioned diagnostic with stage "parse" and
// code diag.CodeParse.
type Error = diag.Diagnostic

type parser struct {
	toks []lexer.Token
	pos  int
	// pendingLoopDirs collects INDEPENDENT/NODEPS directives seen before the
	// DO loop they annotate.
	pendingLoopDirs []ast.LoopDirective
}

// Parse parses a complete program.
func Parse(src string) (*ast.Program, error) {
	toks, err := lexer.Scan(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseProgram()
}

// ParseExpr parses a standalone expression (used in tests and tools).
func ParseExpr(src string) (ast.Expr, error) {
	toks, err := lexer.Scan(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != lexer.Newline {
		return nil, p.errorf("trailing input after expression")
	}
	return e, nil
}

func (p *parser) peek() lexer.Token  { return p.toks[p.pos] }
func (p *parser) peek2() lexer.Token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) next() lexer.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) at(k lexer.Kind) bool { return p.peek().Kind == k }

func (p *parser) accept(k lexer.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k lexer.Kind) (lexer.Token, error) {
	if !p.at(k) {
		return lexer.Token{}, p.errorf("expected %v, found %v %q", k, p.peek().Kind, p.peek().Text)
	}
	return p.next(), nil
}

func (p *parser) errorf(format string, args ...any) error {
	t := p.peek()
	return diag.Errorf("parse", diag.CodeParse, diag.Pos{Line: t.Line, Col: t.Col}, format, args...)
}

func (p *parser) skipNewlines() {
	for p.accept(lexer.Newline) {
	}
}

func (p *parser) expectNewline() error {
	if !p.accept(lexer.Newline) && !p.at(lexer.EOF) {
		return p.errorf("expected end of line, found %v %q", p.peek().Kind, p.peek().Text)
	}
	return nil
}

// ---------------------------------------------------------------------------

func (p *parser) parseProgram() (*ast.Program, error) {
	p.skipNewlines()
	if _, err := p.expect(lexer.KwProgram); err != nil {
		return nil, err
	}
	nameTok, err := p.expect(lexer.Ident)
	if err != nil {
		return nil, err
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	prog := &ast.Program{Name: nameTok.Text}

	// Declarations and declarative directives.
	for {
		p.skipNewlines()
		switch p.peek().Kind {
		case lexer.KwParameter:
			pa, err := p.parseParameter()
			if err != nil {
				return nil, err
			}
			prog.Params = append(prog.Params, pa)
		case lexer.KwInteger, lexer.KwReal:
			ds, err := p.parseVarDecl()
			if err != nil {
				return nil, err
			}
			prog.Decls = append(prog.Decls, ds...)
		case lexer.HPFDirective:
			// Declarative directive, or an executable directive (loop
			// annotation / redistribute) that begins the body.
			if p.isLoopDirectiveAhead() || p.peek2().Kind == lexer.KwRedistribute {
				goto body
			}
			d, err := p.parseDeclDirective()
			if err != nil {
				return nil, err
			}
			if d != nil {
				prog.Dirs = append(prog.Dirs, d)
			}
		default:
			goto body
		}
	}

body:
	stmts, err := p.parseStmts()
	if err != nil {
		return nil, err
	}
	prog.Body = stmts
	if _, err := p.expect(lexer.KwEnd); err != nil {
		return nil, err
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	p.skipNewlines()
	if !p.at(lexer.EOF) {
		return nil, p.errorf("unexpected input after 'end'")
	}
	if len(p.pendingLoopDirs) > 0 {
		d := p.pendingLoopDirs[0]
		return nil, diag.Errorf("parse", diag.CodeParse, diag.Pos{Line: d.Line, Col: d.Col},
			"independent/nodeps directive not followed by a do loop")
	}
	return prog, nil
}

// isLoopDirectiveAhead reports whether the current HPFDirective token starts
// an INDEPENDENT/NODEPS loop directive (vs. a declarative directive).
func (p *parser) isLoopDirectiveAhead() bool {
	k := p.peek2().Kind
	return k == lexer.KwIndependent || k == lexer.KwNoDeps
}

func (p *parser) parseParameter() (*ast.Param, error) {
	kw := p.next() // parameter
	name, err := p.expect(lexer.Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Assign); err != nil {
		return nil, err
	}
	neg := p.accept(lexer.Minus)
	lit, err := p.expect(lexer.IntLit)
	if err != nil {
		return nil, err
	}
	v, err := strconv.ParseInt(lit.Text, 10, 64)
	if err != nil {
		return nil, p.errorf("bad integer %q", lit.Text)
	}
	if neg {
		v = -v
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	return &ast.Param{Name: name.Text, Value: v, Line: kw.Line, Col: kw.Col}, nil
}

func (p *parser) parseVarDecl() ([]*ast.VarDecl, error) {
	kw := p.next()
	ty := ast.Integer
	if kw.Kind == lexer.KwReal {
		ty = ast.Real
	}
	var decls []*ast.VarDecl
	for {
		name, err := p.expect(lexer.Ident)
		if err != nil {
			return nil, err
		}
		d := &ast.VarDecl{Name: name.Text, Type: ty, Line: name.Line, Col: name.Col}
		if p.accept(lexer.LParen) {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				d.Dims = append(d.Dims, e)
				if !p.accept(lexer.Comma) {
					break
				}
			}
			if _, err := p.expect(lexer.RParen); err != nil {
				return nil, err
			}
		}
		decls = append(decls, d)
		if !p.accept(lexer.Comma) {
			break
		}
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	return decls, nil
}

// ---------------------------------------------------------------------------
// Directives

func (p *parser) parseDeclDirective() (ast.Directive, error) {
	hpf := p.next() // !hpf$
	switch p.peek().Kind {
	case lexer.KwProcessors:
		return p.parseProcessors(hpf)
	case lexer.KwDistribute:
		return p.parseDistribute(hpf)
	case lexer.KwAlign:
		return p.parseAlign(hpf)
	case lexer.KwTemplate:
		// Templates are parsed and ignored: arrays distribute directly.
		for !p.at(lexer.Newline) && !p.at(lexer.EOF) {
			p.next()
		}
		if err := p.expectNewline(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	return nil, p.errorf("unknown directive %q", p.peek().Text)
}

func (p *parser) parseProcessors(hpf lexer.Token) (ast.Directive, error) {
	p.next() // processors
	name, err := p.expect(lexer.Ident)
	if err != nil {
		return nil, err
	}
	d := &ast.ProcessorsDir{Name: name.Text, Line: hpf.Line, Col: hpf.Col}
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Extents = append(d.Extents, e)
		if !p.accept(lexer.Comma) {
			break
		}
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) parseDistFormats() ([]ast.DistFormat, error) {
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	var fms []ast.DistFormat
	for {
		switch p.peek().Kind {
		case lexer.KwBlock:
			p.next()
			fms = append(fms, ast.DistFormat{Kind: ast.DistBlock})
		case lexer.KwCyclic:
			p.next()
			fms = append(fms, ast.DistFormat{Kind: ast.DistCyclic})
		case lexer.Star:
			p.next()
			fms = append(fms, ast.DistFormat{Kind: ast.DistNone})
		default:
			return nil, p.errorf("expected block, cyclic or '*' in distribution format")
		}
		if !p.accept(lexer.Comma) {
			break
		}
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	return fms, nil
}

// parseDistribute handles both "distribute (block,*) :: a, b" and
// "distribute a(block,*)".
func (p *parser) parseDistribute(hpf lexer.Token) (ast.Directive, error) {
	p.next() // distribute
	d := &ast.DistributeDir{Line: hpf.Line, Col: hpf.Col}
	if p.at(lexer.LParen) {
		fms, err := p.parseDistFormats()
		if err != nil {
			return nil, err
		}
		d.Formats = fms
		if _, err := p.expect(lexer.DoubleColon); err != nil {
			return nil, err
		}
		for {
			name, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			d.Arrays = append(d.Arrays, name.Text)
			if !p.accept(lexer.Comma) {
				break
			}
		}
	} else {
		name, err := p.expect(lexer.Ident)
		if err != nil {
			return nil, err
		}
		d.Arrays = []string{name.Text}
		fms, err := p.parseDistFormats()
		if err != nil {
			return nil, err
		}
		d.Formats = fms
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	return d, nil
}

// parseAlign handles "align b(i) with a(i,*)" and
// "align (i) with a(i) :: b, c, d".
func (p *parser) parseAlign(hpf lexer.Token) (ast.Directive, error) {
	p.next() // align
	d := &ast.AlignDir{Line: hpf.Line, Col: hpf.Col}
	var leadingArray string
	if p.at(lexer.Ident) {
		t := p.next()
		leadingArray = t.Text
	}
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	if !p.at(lexer.RParen) {
		for {
			// A source dummy, or ":" meaning identity over all dimensions.
			if p.accept(lexer.Colon) {
				d.Dummies = append(d.Dummies, ":")
			} else {
				t, err := p.expect(lexer.Ident)
				if err != nil {
					return nil, err
				}
				d.Dummies = append(d.Dummies, t.Text)
			}
			if !p.accept(lexer.Comma) {
				break
			}
		}
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.KwWith); err != nil {
		return nil, err
	}
	target, err := p.expect(lexer.Ident)
	if err != nil {
		return nil, err
	}
	d.Target = target.Text
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	for {
		sub, err := p.parseAlignSub()
		if err != nil {
			return nil, err
		}
		d.Subs = append(d.Subs, sub)
		if !p.accept(lexer.Comma) {
			break
		}
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	if leadingArray != "" {
		d.Arrays = []string{leadingArray}
	}
	if p.accept(lexer.DoubleColon) {
		for {
			name, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			d.Arrays = append(d.Arrays, name.Text)
			if !p.accept(lexer.Comma) {
				break
			}
		}
	}
	if len(d.Arrays) == 0 {
		return nil, p.errorf("align directive names no arrays")
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) parseAlignSub() (ast.AlignSub, error) {
	switch p.peek().Kind {
	case lexer.Star:
		p.next()
		return ast.AlignSub{Star: true}, nil
	case lexer.Colon:
		p.next()
		return ast.AlignSub{Dummy: ":"}, nil
	case lexer.IntLit:
		t := p.next()
		v, _ := strconv.ParseInt(t.Text, 10, 64)
		return ast.AlignSub{Const: true, Value: v}, nil
	case lexer.Ident:
		t := p.next()
		sub := ast.AlignSub{Dummy: t.Text}
		if p.accept(lexer.Plus) {
			lit, err := p.expect(lexer.IntLit)
			if err != nil {
				return ast.AlignSub{}, err
			}
			sub.Offset, _ = strconv.ParseInt(lit.Text, 10, 64)
		} else if p.accept(lexer.Minus) {
			lit, err := p.expect(lexer.IntLit)
			if err != nil {
				return ast.AlignSub{}, err
			}
			v, _ := strconv.ParseInt(lit.Text, 10, 64)
			sub.Offset = -v
		}
		return sub, nil
	}
	return ast.AlignSub{}, p.errorf("bad align subscript")
}

// parseLoopDirective parses "!hpf$ independent [, new(a,b)]" or
// "!hpf$ nodeps [, new(a,b)]".
func (p *parser) parseLoopDirective() error {
	hpf := p.next() // !hpf$
	d := ast.LoopDirective{Line: hpf.Line, Col: hpf.Col}
	for {
		switch p.peek().Kind {
		case lexer.KwIndependent:
			p.next()
			d.Independent = true
		case lexer.KwNoDeps:
			p.next()
			d.NoDeps = true
		case lexer.KwNew:
			p.next()
			if _, err := p.expect(lexer.LParen); err != nil {
				return err
			}
			for {
				name, err := p.expect(lexer.Ident)
				if err != nil {
					return err
				}
				d.New = append(d.New, name.Text)
				if !p.accept(lexer.Comma) {
					break
				}
			}
			if _, err := p.expect(lexer.RParen); err != nil {
				return err
			}
		default:
			return p.errorf("expected independent, nodeps or new in loop directive")
		}
		if !p.accept(lexer.Comma) {
			break
		}
	}
	if err := p.expectNewline(); err != nil {
		return err
	}
	p.pendingLoopDirs = append(p.pendingLoopDirs, d)
	return nil
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) parseStmts() ([]ast.Stmt, error) {
	var stmts []ast.Stmt
	for {
		p.skipNewlines()
		switch p.peek().Kind {
		case lexer.KwEnd, lexer.KwEndDo, lexer.KwEndIf, lexer.KwElse, lexer.EOF:
			return stmts, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			stmts = append(stmts, s)
		}
	}
}

func (p *parser) parseStmt() (ast.Stmt, error) {
	switch p.peek().Kind {
	case lexer.HPFDirective:
		if p.isLoopDirectiveAhead() {
			if err := p.parseLoopDirective(); err != nil {
				return nil, err
			}
			return nil, nil // attaches to next DO
		}
		if p.peek2().Kind == lexer.KwRedistribute {
			return p.parseRedistribute()
		}
		return nil, p.errorf("unexpected directive in program body")
	case lexer.KwDo:
		return p.parseDo()
	case lexer.KwIf:
		return p.parseIf()
	case lexer.KwGoto:
		t := p.next()
		lab, err := p.expect(lexer.IntLit)
		if err != nil {
			return nil, err
		}
		v, _ := strconv.ParseInt(lab.Text, 10, 32)
		if err := p.expectNewline(); err != nil {
			return nil, err
		}
		return &ast.Goto{Label: int(v), Line: t.Line, Col: t.Col}, nil
	case lexer.IntLit:
		// "nnn continue"
		lab := p.next()
		if _, err := p.expect(lexer.KwContinue); err != nil {
			return nil, err
		}
		v, _ := strconv.ParseInt(lab.Text, 10, 32)
		if err := p.expectNewline(); err != nil {
			return nil, err
		}
		return &ast.Continue{Label: int(v), Line: lab.Line, Col: lab.Col}, nil
	case lexer.Ident:
		return p.parseAssign()
	}
	return nil, p.errorf("expected statement, found %v %q", p.peek().Kind, p.peek().Text)
}

func (p *parser) parseRedistribute() (ast.Stmt, error) {
	hpf := p.next() // !hpf$
	p.next()        // redistribute
	name, err := p.expect(lexer.Ident)
	if err != nil {
		return nil, err
	}
	fms, err := p.parseDistFormats()
	if err != nil {
		return nil, err
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	return &ast.Redistribute{Array: name.Text, Formats: fms, Line: hpf.Line, Col: hpf.Col}, nil
}

func (p *parser) parseAssign() (ast.Stmt, error) {
	lhs, err := p.parseRef()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Assign); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	return &ast.Assign{Lhs: lhs, Rhs: rhs, Line: lhs.Line, Col: lhs.Col}, nil
}

func (p *parser) parseDo() (ast.Stmt, error) {
	doTok := p.next()
	v, err := p.expect(lexer.Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Assign); err != nil {
		return nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Comma); err != nil {
		return nil, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var step ast.Expr
	if p.accept(lexer.Comma) {
		step, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	loop := &ast.DoLoop{Var: v.Text, Lo: lo, Hi: hi, Step: step, Line: doTok.Line, Col: doTok.Col}
	loop.Dirs = p.pendingLoopDirs
	p.pendingLoopDirs = nil
	body, err := p.parseStmts()
	if err != nil {
		return nil, err
	}
	loop.Body = body
	endTok := p.peek()
	if p.accept(lexer.KwEndDo) { // "enddo"
	} else {
		if _, err := p.expect(lexer.KwEnd); err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.KwDo); err != nil {
			return nil, err
		}
	}
	loop.EndLine = endTok.Line
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	return loop, nil
}

func (p *parser) parseIf() (ast.Stmt, error) {
	ifTok := p.next()
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	switch p.peek().Kind {
	case lexer.KwThen:
		p.next()
		if err := p.expectNewline(); err != nil {
			return nil, err
		}
		thenStmts, err := p.parseStmts()
		if err != nil {
			return nil, err
		}
		var elseStmts []ast.Stmt
		if p.accept(lexer.KwElse) {
			if err := p.expectNewline(); err != nil {
				return nil, err
			}
			elseStmts, err = p.parseStmts()
			if err != nil {
				return nil, err
			}
		}
		if p.accept(lexer.KwEndIf) { // "endif"
		} else {
			if _, err := p.expect(lexer.KwEnd); err != nil {
				return nil, err
			}
			if _, err := p.expect(lexer.KwIf); err != nil {
				return nil, err
			}
		}
		if err := p.expectNewline(); err != nil {
			return nil, err
		}
		return &ast.If{Cond: cond, Then: thenStmts, Else: elseStmts, Line: ifTok.Line, Col: ifTok.Col}, nil
	case lexer.KwGoto:
		p.next()
		lab, err := p.expect(lexer.IntLit)
		if err != nil {
			return nil, err
		}
		v, _ := strconv.ParseInt(lab.Text, 10, 32)
		if err := p.expectNewline(); err != nil {
			return nil, err
		}
		return &ast.IfGoto{Cond: cond, Label: int(v), Line: ifTok.Line, Col: ifTok.Col}, nil
	default:
		// Logical IF with a single assignment: "if (c) x = e".
		lhs, err := p.parseRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.Assign); err != nil {
			return nil, err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectNewline(); err != nil {
			return nil, err
		}
		asn := &ast.Assign{Lhs: lhs, Rhs: rhs, Line: ifTok.Line, Col: ifTok.Col}
		return &ast.If{Cond: cond, Then: []ast.Stmt{asn}, Line: ifTok.Line, Col: ifTok.Col}, nil
	}
}

// ---------------------------------------------------------------------------
// Expressions

func (p *parser) parseExpr() (ast.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (ast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(lexer.KwOr) {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &ast.BinOp{Op: ast.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (ast.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(lexer.KwAnd) {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &ast.BinOp{Op: ast.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (ast.Expr, error) {
	if p.accept(lexer.KwNot) {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ast.Not{X: x}, nil
	}
	return p.parseRel()
}

var relOps = map[lexer.Kind]ast.Op{
	lexer.Eq: ast.OpEq, lexer.Ne: ast.OpNe,
	lexer.Lt: ast.OpLt, lexer.Le: ast.OpLe,
	lexer.Gt: ast.OpGt, lexer.Ge: ast.OpGe,
}

func (p *parser) parseRel() (ast.Expr, error) {
	l, err := p.parseArith()
	if err != nil {
		return nil, err
	}
	if op, ok := relOps[p.peek().Kind]; ok {
		p.next()
		r, err := p.parseArith()
		if err != nil {
			return nil, err
		}
		return &ast.BinOp{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseArith() (ast.Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.Op
		switch p.peek().Kind {
		case lexer.Plus:
			op = ast.Add
		case lexer.Minus:
			op = ast.Sub
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = &ast.BinOp{Op: op, L: l, R: r}
	}
}

func (p *parser) parseTerm() (ast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.Op
		switch p.peek().Kind {
		case lexer.Star:
			op = ast.Mul
		case lexer.Slash:
			op = ast.Div
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &ast.BinOp{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (ast.Expr, error) {
	if p.accept(lexer.Minus) {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.UnaryMinus{X: x}, nil
	}
	p.accept(lexer.Plus)
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	switch p.peek().Kind {
	case lexer.IntLit:
		t := p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", t.Text)
		}
		return &ast.IntConst{Value: v}, nil
	case lexer.RealLit:
		t := p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf("bad real literal %q", t.Text)
		}
		return &ast.RealConst{Value: v}, nil
	case lexer.LParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RParen); err != nil {
			return nil, err
		}
		return e, nil
	case lexer.Ident:
		name := p.peek().Text
		if _, isIntrinsic := ast.Intrinsics[name]; isIntrinsic && p.peek2().Kind == lexer.LParen {
			return p.parseCall()
		}
		return p.parseRef()
	}
	return nil, p.errorf("expected expression, found %v %q", p.peek().Kind, p.peek().Text)
}

func (p *parser) parseCall() (ast.Expr, error) {
	name := p.next()
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	c := &ast.Call{Name: name.Text}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Args = append(c.Args, a)
		if !p.accept(lexer.Comma) {
			break
		}
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	arity := ast.Intrinsics[c.Name].Arity
	if arity >= 0 && len(c.Args) != arity {
		return nil, p.errorf("intrinsic %s takes %d argument(s), got %d", c.Name, arity, len(c.Args))
	}
	if arity == -1 && len(c.Args) < 2 {
		return nil, p.errorf("intrinsic %s takes at least 2 arguments", c.Name)
	}
	return c, nil
}

func (p *parser) parseRef() (*ast.Ref, error) {
	name, err := p.expect(lexer.Ident)
	if err != nil {
		return nil, err
	}
	r := &ast.Ref{Name: name.Text, Line: name.Line, Col: name.Col}
	if p.accept(lexer.LParen) {
		for {
			s, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.Subs = append(r.Subs, s)
			if !p.accept(lexer.Comma) {
				break
			}
		}
		if _, err := p.expect(lexer.RParen); err != nil {
			return nil, err
		}
	}
	return r, nil
}
