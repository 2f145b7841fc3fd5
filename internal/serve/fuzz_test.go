package serve

import (
	"errors"
	"fmt"
	"testing"

	"phpf"
	"phpf/internal/diag"
	"phpf/internal/programs"
)

// FuzzServeRequest asserts the request decoder's robustness contract on
// arbitrary bodies: DecodeRunSpec + validate never panic, and every
// rejection is a coded *diag.Diagnostic (the 4xx the server would send) —
// never a bare error and never a fall-through into compile/execute with
// absurd values (procs, timeouts, and budgets come back clamped to the
// server's limits).
func FuzzServeRequest(f *testing.F) {
	// Seed with the figure corpus in every request shape the API accepts...
	for _, fig := range append(phpf.FigureNames(), "smooth") {
		f.Add([]byte(fmt.Sprintf(`{"figure":%q,"procs":4}`, fig)))
		f.Add([]byte(fmt.Sprintf(`{"figure":%q,"procs":16,"opt":"naive","backend":"concurrent"}`, fig)))
		f.Add([]byte(fmt.Sprintf(`{"figure":%q,"procs":8,"opt":"producer","timeout_ms":500,"max_cells":65536}`, fig)))
		f.Add([]byte(fmt.Sprintf(`{"figure":%q,"procs":4,"chaos":{"seed":7,"loss_rate":0.05,"dup_rate":0.01,"checkpoint_interval":0.05}}`, fig)))
	}
	f.Add([]byte(fmt.Sprintf(`{"source":%q,"procs":4,"return_arrays":true}`, programs.Smooth(16, 1))))
	// The reduce-sweep kernels in every runtime reduction strategy,
	// plus a strategy name the validator must reject.
	f.Add([]byte(fmt.Sprintf(`{"source":%q,"procs":8,"reduce":"privatize"}`, programs.Histogram(64, 16, 2))))
	f.Add([]byte(fmt.Sprintf(`{"source":%q,"procs":4,"reduce":"collective","return_arrays":true}`, programs.DotSweep(16, 12))))
	f.Add([]byte(`{"figure":"figure1","procs":4,"reduce":"bogus"}`))
	// A directive implying a rank-8 processor grid (above dist.MaxRank).
	f.Add([]byte(`{"source":"program t\nreal a(2,2,2,2,2,2,2,2)\n!hpf$ processors p(2,2,2,2,2,2,2,2)\n!hpf$ distribute (block,block,block,block,block,block,block,block) :: a\na(1,1,1,1,1,1,1,1) = 1.0\nend\n","procs":4}`))
	// ...and with malformed shapes the decoder must reject, not choke on.
	f.Add([]byte(`{"figure":"figure1","procs":4`))
	f.Add([]byte(`{"figure":"figure1","procs":4} trailing`))
	f.Add([]byte(`{"figure":"figure1","procs":4,"unknown":true}`))
	f.Add([]byte(`{"procs":1e308}`))
	f.Add([]byte(`{"figure":"figure1","procs":-1,"timeout_ms":-9223372036854775808}`))
	f.Add([]byte(`{"figure":"figure1","procs":4,"max_cells":9223372036854775807}`))
	f.Add([]byte(`{"figure":"figure1","procs":4,"chaos":{"seed":1,"loss_rate":1e999}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	cfg := Config{Chaos: true}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		if int64(len(body)) > cfg.MaxBodyBytes {
			return // the server bounds the body before the decoder sees it
		}
		spec, err := DecodeRunSpec(body)
		if err != nil {
			requireCoded(t, err)
			return
		}
		for _, needBackend := range []bool{false, true} {
			v, err := spec.validate(cfg, needBackend)
			if err != nil {
				requireCoded(t, err)
				continue
			}
			// A validated request is inside every server limit.
			if v.procs < 1 || v.procs > cfg.MaxProcs {
				t.Fatalf("validated procs %d escaped [1,%d]", v.procs, cfg.MaxProcs)
			}
			if int64(len(v.source)) > cfg.MaxSourceBytes {
				t.Fatalf("validated source of %d bytes escaped the %d-byte limit", len(v.source), cfg.MaxSourceBytes)
			}
			if v.timeout <= 0 || v.timeout > cfg.MaxTimeout {
				t.Fatalf("validated timeout %v escaped (0,%v]", v.timeout, cfg.MaxTimeout)
			}
			if cfg.MaxCells > 0 && (v.run.MaxCells <= 0 || v.run.MaxCells > cfg.MaxCells) {
				t.Fatalf("validated budget %d escaped (0,%d]", v.run.MaxCells, cfg.MaxCells)
			}
			if err := v.run.Validate(v.procs, ""); err != nil {
				t.Fatalf("validated RunOptions re-validate failed: %v", err)
			}
			if v.key == "" {
				t.Fatal("validated request has no cache key")
			}
		}
	})
}

func requireCoded(t *testing.T, err error) {
	t.Helper()
	var d *diag.Diagnostic
	if !errors.As(err, &d) {
		t.Fatalf("rejection is not a coded *diag.Diagnostic: %T %v", err, err)
	}
	if d.Code == "" {
		t.Fatalf("rejection has no stable code: %v", d)
	}
}
