package pass

import (
	"fmt"

	"phpf/internal/diag"
)

// Run executes the steps in order over u and returns the profile of what ran
// (also of a failed run). Every execution is timed and its diagnostics
// counted; with verify the unit verifier runs after it, and any violation
// aborts with an error naming the step; the unit is snapshotted after the
// step dumpAfter names.
//
// The one conditional: a step that rewrote the program (induction) leaves
// u.CFG, u.SSA and u.Consts nil, and the cfg, ssa and constprop steps run
// again right there, marked Rerun.
func Run(u *Unit, steps []Step, verify bool, dumpAfter string) (*CompileProfile, error) {
	prof := &CompileProfile{}
	exec := func(s Step, rerun bool) error {
		var err error
		prof.Time(s.Name, rerun, func() int {
			before := len(u.Diags)
			err = s.Run(u)
			return len(u.Diags) - before
		})
		if err != nil {
			return err
		}
		if verify {
			if errs := VerifyUnit(u); len(errs) > 0 {
				return &diag.Diagnostic{
					Severity: diag.Error,
					Stage:    "verify",
					Code:     diag.CodeVerify,
					Subject:  s.Name,
					Msg:      fmt.Sprintf("after pass %s: %s", s.Name, errs[0]),
				}
			}
		}
		if dumpAfter == s.Name {
			prof.Dumps = map[string]string{s.Name: DumpUnit(u)}
		}
		return nil
	}
	for i, s := range steps {
		hadCFG := u.CFG != nil
		if err := exec(s, false); err != nil {
			return prof, err
		}
		if !hadCFG || u.CFG != nil {
			continue // s dropped nothing
		}
		for _, b := range steps[:i] {
			if b.Name == "cfg" || b.Name == "ssa" || b.Name == "constprop" {
				if err := exec(b, true); err != nil {
					return prof, err
				}
			}
		}
	}
	return prof, nil
}
