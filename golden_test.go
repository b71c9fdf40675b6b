package specabsint

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/machine"
	"specabsint/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// checkGolden compares got against testdata/golden/<name>, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run %s -update`): %v", t.Name(), err)
	}
	if got != string(want) {
		t.Errorf("report drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestGoldenFig2Report pins the abstract classifications of the paper's
// Fig. 2 program — the classic (unsound) analysis against the
// speculation-aware one — as a rendered report. Any refactor that shifts a
// verdict, the WCET bound, or the reported side channels shows up as a diff.
func TestGoldenFig2Report(t *testing.T) {
	var sb strings.Builder
	for _, spec := range []bool{false, true} {
		opts := []Option{WithSpeculation(spec), WithDepths(3, 3)}
		p, err := CompileOpts(bench.Fig2Program(-1), opts...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := AnalyzeContext(context.Background(), p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		mode := "classic (non-speculative)"
		if spec {
			mode = "speculative (bm=3 bh=3)"
		}
		fmt.Fprintf(&sb, "== %s ==\n", mode)
		fmt.Fprintf(&sb, "accesses=%d misses=%d specMisses=%d branches=%d\n",
			len(rep.Accesses), rep.Misses, rep.SpecMisses, rep.Branches)
		fmt.Fprintf(&sb, "wcet: hits=%d misses=%d unknown=%d cycles=%d specExtra=%d\n",
			rep.WCET.AlwaysHits, rep.WCET.AlwaysMisses, rep.WCET.Unknown,
			rep.WCET.WorstCaseCycles, rep.WCET.SpecExtraCycles)
		// Classifications aggregated per source line: the Fig. 2 preload
		// loop unrolls to 510 accesses that must all agree.
		type key struct {
			line  int
			sym   string
			store bool
			cls   Classification
			spec  Classification
			rch   bool
		}
		counts := map[key]int{}
		var order []key
		for _, a := range rep.Accesses {
			k := key{a.Line, a.Symbol, a.Store, a.Class, a.SpecClass, a.SpecReached}
			if counts[k] == 0 {
				order = append(order, k)
			}
			counts[k]++
		}
		for _, k := range order {
			kind := "load"
			if k.store {
				kind = "store"
			}
			specStr := "unreached"
			if k.rch {
				specStr = k.spec.String()
			}
			fmt.Fprintf(&sb, "line %2d %-5s %-3s x%-3d class=%-11s spec=%s\n",
				k.line, kind, k.sym, counts[k], k.cls, specStr)
		}
		fmt.Fprintf(&sb, "leaks: %s\n", strings.Join(leakStrings(rep.Leaks), "; "))
		fmt.Fprintf(&sb, "spectre gadgets: %s\n\n", strings.Join(leakStrings(rep.SpectreGadgets), "; "))
	}
	checkGolden(t, "fig2-report.txt", sb.String())
}

// leakStrings renders structured leaks back to their report lines.
func leakStrings(leaks []Leak) []string {
	out := make([]string, len(leaks))
	for i, l := range leaks {
		out[i] = l.String()
	}
	return out
}

// TestGoldenFig3Traces pins the concrete speculative traces of Fig. 3: the
// non-speculative trace (512 misses, ph[k] hits), the forced-mispredict
// trace (ph[k] evicted by the wrong-path arm), and the secret-dependent
// timing difference that constitutes the leak.
func TestGoldenFig3Traces(t *testing.T) {
	run := func(k int, forced bool) machine.Stats {
		prog, _, err := runner.Compile(bench.Fig2Program(k), 0, false)
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.DefaultConfig()
		if forced {
			cfg.ForceMispredict = true
			cfg.DepthMiss, cfg.DepthHit = 3, 3
		} else {
			cfg.DepthMiss, cfg.DepthHit = 0, 0
		}
		stats, err := machine.RunProgram(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	var sb strings.Builder
	nonspec, spec := run(0, false), run(0, true)
	fmt.Fprintf(&sb, "non-speculative (k=0): %s rollbacks=%d\n", nonspec, nonspec.Rollbacks)
	fmt.Fprintf(&sb, "forced mispredict (k=0, bm=bh=3): %s rollbacks=%d\n", spec, spec.Rollbacks)
	const kFar = 64 * 300
	fmt.Fprintf(&sb, "secret-dependent timing, speculative: k=0 misses=%d cycles=%d, k=%d misses=%d cycles=%d\n",
		spec.Misses, spec.Cycles, kFar, run(kFar, true).Misses, run(kFar, true).Cycles)
	fmt.Fprintf(&sb, "secret-independent timing, classic: k=0 misses=%d cycles=%d, k=%d misses=%d cycles=%d\n",
		nonspec.Misses, nonspec.Cycles, kFar, run(kFar, false).Misses, run(kFar, false).Cycles)
	checkGolden(t, "fig3-traces.txt", sb.String())
}
