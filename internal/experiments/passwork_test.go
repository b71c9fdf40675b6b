package experiments

import (
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/core"
	"specabsint/internal/obs"
	"specabsint/internal/passes"
)

// TestPassesCutFixpointWork is the pass pipeline's cost contract, stated in
// the fixpoint's deterministic work counters rather than wall clock: with
// passes on, neither g72 (where no branch resolves) nor jcmarker (where
// guard chains against constant marker codes resolve) may do more fixpoint
// work, and on jcmarker the resolved branches must cut the iterations and
// colors to the measured figures. Under -race or -short only jcmarker runs.
func TestPassesCutFixpointWork(t *testing.T) {
	kernels := []string{"g72", "jcmarker"}
	if raceDetectorOn || testing.Short() {
		kernels = []string{"jcmarker"}
	}
	for _, name := range kernels {
		t.Run(name, func(t *testing.T) {
			b, ok := bench.ByName(name)
			if !ok {
				t.Fatalf("kernel %q not in corpus", name)
			}
			analyze := func(withPasses bool) obs.FixpointStats {
				t.Helper()
				prog, err := bench.Compile(b.Code, 0)
				if err != nil {
					t.Fatal(err)
				}
				if withPasses {
					if _, err := passes.Run(prog, passes.Default()); err != nil {
						t.Fatal(err)
					}
				}
				res, err := core.Analyze(prog, core.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				return res.Stats
			}
			off, on := analyze(false), analyze(true)
			for _, c := range []struct {
				counter string
				off, on int64
			}{
				{"iterations", off.Iterations, on.Iterations},
				{"transfers", off.Transfers, on.Transfers},
				{"spec_transfers", off.SpecTransfers, on.SpecTransfers},
				{"joins", off.Joins, on.Joins},
				{"lane_joins", off.LaneJoins, on.LaneJoins},
			} {
				if c.on > c.off {
					t.Errorf("%s rose with passes on: %d -> %d", c.counter, c.off, c.on)
				}
			}
			if name != "jcmarker" {
				return
			}
			if off.Iterations != 1036 || on.Iterations != 908 {
				t.Errorf("iterations %d -> %d with passes on, want 1036 -> 908", off.Iterations, on.Iterations)
			}
			if off.Colors != 772 || on.Colors != 516 {
				t.Errorf("colors %d -> %d with passes on, want 772 -> 516", off.Colors, on.Colors)
			}
		})
	}
}
