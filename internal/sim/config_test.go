package sim

import (
	"math"
	"strings"
	"testing"

	"phpf/internal/eval"
)

// TestConfigValidate: configurations that cannot describe a run are rejected
// with structured errors, mirroring machine.Params.Validate.
func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},
		{MaxSeconds: 100},
		{CheckpointInterval: 0.5},
	}
	for i, c := range good {
		if err := c.Validate(0, eval.BackendSim); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := []struct {
		cfg  Config
		want string
	}{
		{Config{MaxSeconds: -1}, "MaxSeconds"},
		{Config{MaxSeconds: math.NaN()}, "MaxSeconds"},
		{Config{MaxSeconds: math.Inf(1)}, "MaxSeconds"},
		{Config{CheckpointInterval: -0.1}, "CheckpointInterval"},
		{Config{CheckpointInterval: math.NaN()}, "CheckpointInterval"},
		{Config{CheckpointInterval: math.Inf(1)}, "CheckpointInterval"},
	}
	for i, c := range bad {
		err := c.cfg.Validate(0, eval.BackendSim)
		if err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c.cfg)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("bad config %d: error %q does not name %s", i, err, c.want)
		}
	}
}

// TestRunRejectsBadConfig: Run itself applies the validation (and the nil
// program check) before touching the program.
func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(nil, Config{}); err == nil {
		t.Error("nil program accepted")
	}

	prog := generate(t, abortSrc, 4)
	if _, err := Run(prog, Config{MaxSeconds: -1}); err == nil {
		t.Error("negative MaxSeconds accepted by Run")
	}
	if _, err := Run(prog, Config{CheckpointInterval: math.Inf(1)}); err == nil {
		t.Error("infinite CheckpointInterval accepted by Run")
	}
}
