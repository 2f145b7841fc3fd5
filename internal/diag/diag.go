// Package diag defines the unified diagnostic currency of the compiler:
// every stage — lexer, parser, IR construction, directive resolution, the
// mapping analyses, communication analysis, SPMD generation, and the
// inter-pass verifier — reports problems as positioned, coded Diagnostics.
//
// A Diagnostic is either fatal (Severity Error; the stage returns it as an
// error and compilation stops) or a graceful-degradation record (Warning or
// Info; the stage falls back to a correct-if-slower decision and appends the
// diagnostic to the compile unit). Each carries the stage that emitted it, a
// stable error code (see codes.go), the subject variable or directive, and a
// Line:Col source position.
package diag

import (
	"fmt"
	"strings"
)

// Severity grades a diagnostic.
type Severity int

const (
	// Info records a decision worth surfacing (e.g. communication left at
	// its statement) with no fallback involved.
	Info Severity = iota
	// Warning records a graceful degradation: something was given up and a
	// correct fallback taken (skipped directive, replication fallback).
	Warning
	// Error is fatal: the stage cannot produce a usable result.
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Pos is a source position. Line is 1-based; Col is 1-based and 0 when only
// the line is known. The zero Pos means "no position".
type Pos struct {
	Line int
	Col  int
}

// String renders "line:col", or "line" when the column is unknown, or ""
// for the zero position.
func (p Pos) String() string {
	switch {
	case p.Line > 0 && p.Col > 0:
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	case p.Line > 0:
		return fmt.Sprintf("%d", p.Line)
	}
	return ""
}

// Diagnostic is one positioned problem report.
type Diagnostic struct {
	Severity Severity
	// Stage names the pass or front-end stage that emitted the diagnostic:
	// "lex", "parse", "ir", "cfg", "ssa", "mapping", "scalar-mapping",
	// "comm", "spmd", "verify".
	Stage string
	// Code is the stable machine-readable code from codes.go.
	Code string
	// Subject is the variable or directive the problem concerns ("" when
	// not applicable).
	Subject string
	// Pos is the source position (zero when unknown).
	Pos Pos
	// Msg describes the problem and, for degradations, the fallback taken.
	Msg string
}

// String renders "pos: severity: stage: subject: msg [code]", omitting the
// parts that are unknown.
func (d Diagnostic) String() string {
	var b strings.Builder
	if p := d.Pos.String(); p != "" {
		b.WriteString(p)
		b.WriteString(": ")
	}
	b.WriteString(d.Severity.String())
	b.WriteString(": ")
	if d.Stage != "" {
		b.WriteString(d.Stage)
		b.WriteString(": ")
	}
	if d.Subject != "" {
		b.WriteString(d.Subject)
		b.WriteString(": ")
	}
	b.WriteString(d.Msg)
	if d.Code != "" {
		fmt.Fprintf(&b, " [%s]", d.Code)
	}
	return b.String()
}

// Error makes *Diagnostic usable as a Go error (fatal front-end errors are
// returned this way).
func (d *Diagnostic) Error() string { return d.String() }

// Errorf builds a fatal diagnostic.
func Errorf(stage, code string, pos Pos, format string, args ...any) *Diagnostic {
	return &Diagnostic{Severity: Error, Stage: stage, Code: code, Pos: pos,
		Msg: fmt.Sprintf(format, args...)}
}

// Warningf builds a graceful-degradation diagnostic about subject.
func Warningf(stage, code, subject string, pos Pos, format string, args ...any) Diagnostic {
	return Diagnostic{Severity: Warning, Stage: stage, Code: code, Subject: subject,
		Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Infof builds an informational diagnostic about subject.
func Infof(stage, code, subject string, pos Pos, format string, args ...any) Diagnostic {
	return Diagnostic{Severity: Info, Stage: stage, Code: code, Subject: subject,
		Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// List is an ordered collection of diagnostics.
type List []Diagnostic

// Count returns how many diagnostics have the given severity.
func (l List) Count(s Severity) int {
	n := 0
	for _, d := range l {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// Min returns the diagnostics with severity >= s.
func (l List) Min(s Severity) List {
	var out List
	for _, d := range l {
		if d.Severity >= s {
			out = append(out, d)
		}
	}
	return out
}
