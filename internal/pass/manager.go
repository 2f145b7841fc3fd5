package pass

import (
	"fmt"
	"time"

	"phpf/internal/diag"
)

// Manager runs a declared sequence of passes over a Unit, restoring
// invalidated facts lazily and collecting the CompileProfile.
type Manager struct {
	// Verify runs the unit verifier after every pass execution; any
	// violation aborts the pipeline with an error naming the offending pass.
	Verify bool
	// DumpAfter names a pass whose post-state is snapshotted into
	// Profile.Dumps (empty: no dumps).
	DumpAfter string

	passes   []*Pass
	provider map[Fact]*Pass
	profile  *CompileProfile
}

// NewManager builds a manager over the given pipeline order.
func NewManager(passes ...*Pass) (*Manager, error) {
	m := &Manager{
		passes:   passes,
		provider: map[Fact]*Pass{},
		profile:  &CompileProfile{Dumps: map[string]string{}},
	}
	seen := map[string]bool{}
	for _, p := range passes {
		if seen[p.Name] {
			return nil, fmt.Errorf("pass: duplicate pass name %q", p.Name)
		}
		seen[p.Name] = true
		for _, f := range p.Provides {
			if prev, dup := m.provider[f]; dup {
				return nil, fmt.Errorf("pass: fact %s provided by both %q and %q",
					f, prev.Name, p.Name)
			}
			m.provider[f] = p
		}
	}
	return m, nil
}

// Profile returns the instrumentation collected so far (valid after Run,
// even a failed one).
func (m *Manager) Profile() *CompileProfile { return m.profile }

// Run executes the pipeline in declared order. Before each pass, facts it
// requires that an earlier pass invalidated are restored by lazily re-running
// their providers (recorded in the profile as re-runs).
func (m *Manager) Run(u *Unit) error {
	for _, p := range m.passes {
		if err := m.ensure(u, p.Requires, p.Name); err != nil {
			return err
		}
		if err := m.exec(u, p, false); err != nil {
			return err
		}
	}
	return nil
}

// ensure restores the given facts, re-running providers as needed. forPass
// names the pass the facts are needed by (for error messages).
func (m *Manager) ensure(u *Unit, facts []Fact, forPass string) error {
	for _, f := range facts {
		if u.Valid(f) {
			continue
		}
		prov := m.provider[f]
		if prov == nil {
			return fmt.Errorf("pass %s: requires %s but no pass in the pipeline provides it", forPass, f)
		}
		if err := m.ensure(u, prov.Requires, prov.Name); err != nil {
			return err
		}
		if err := m.exec(u, prov, true); err != nil {
			return err
		}
		if !u.Valid(f) {
			return fmt.Errorf("pass %s: provider %s ran but did not establish %s", forPass, prov.Name, f)
		}
	}
	return nil
}

// exec runs one pass with instrumentation and post-run checks.
func (m *Manager) exec(u *Unit, p *Pass, rerun bool) error {
	diagsBefore := len(u.Diags)
	u.invalidated = nil
	start := time.Now()
	err := p.Run(u)
	wall := time.Since(start)
	m.profile.Stats = append(m.profile.Stats, PassStat{
		Name:  p.Name,
		Wall:  wall,
		Diags: len(u.Diags) - diagsBefore,
		Rerun: rerun,
	})
	if err != nil {
		return err
	}
	// Invalidation discipline: everything Run invalidated must be declared,
	// directly or as a transitive consequence of a declared fact.
	allowed := map[Fact]bool{}
	var mark func(f Fact)
	mark = func(f Fact) {
		if allowed[f] {
			return
		}
		allowed[f] = true
		for _, d := range derived[f] {
			mark(d)
		}
	}
	for _, f := range p.Invalidates {
		mark(f)
	}
	for _, f := range u.invalidated {
		if !allowed[f] {
			return fmt.Errorf("pass %s: invalidated undeclared fact %s", p.Name, f)
		}
	}
	for _, f := range p.Provides {
		u.valid[f] = true
	}
	if m.Verify {
		if errs := VerifyUnit(u); len(errs) > 0 {
			return &diag.Diagnostic{
				Severity: diag.Error,
				Stage:    "verify",
				Code:     diag.CodeVerify,
				Subject:  p.Name,
				Msg:      fmt.Sprintf("after pass %s: %s", p.Name, errs[0]),
			}
		}
	}
	if m.DumpAfter == p.Name {
		m.profile.Dumps[p.Name] = DumpUnit(u)
	}
	return nil
}
