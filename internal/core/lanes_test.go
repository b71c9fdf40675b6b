package core

import (
	"fmt"
	"slices"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/cache"
	"specabsint/internal/passes"
)

// TestLaneVerdictsMatchFinalWalk: classify takes each lane slot's wrong-path
// verdicts from the slot's last walk instead of walking the lane again. That
// is exact only if every slot's last walk used the slot's final state and
// budget. Re-walk every slot from its final value with Transfer and
// Classify, under laneWalk's positional budget and fence cut-off, and
// require the recorded verdicts: on fig2, des, g72 and jcmarker, compiled
// with the default passes, under every merge strategy and all three
// analysis models, on the paper's cache. jcmarker's i-cache and persistence
// analyses take seconds there and run at 64 sets × 8 ways instead. Under
// -race or -short, g72 and jcmarker run only the data-cache model.
func TestLaneVerdictsMatchFinalWalk(t *testing.T) {
	cheap := raceDetectorOn || testing.Short()
	progs := []struct{ name, src string }{{"fig2", bench.Fig2Program(-1)}}
	for _, name := range []string{"des", "g72", "jcmarker"} {
		b, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("%s not in corpus", name)
		}
		src := b.Code
		if b.Kind == bench.SideChannel {
			src = bench.WithClient(b, 4096)
		}
		progs = append(progs, struct{ name, src string }{name, src})
	}
	models := []struct {
		name string
		m    model
	}{{"data", dataCache}, {"icache", instrCache}, {"persist", persistence}}
	strategies := []Strategy{StrategyJustInTime, StrategyMergeAtRollback, StrategyPerRollbackBlock}
	for _, p := range progs {
		for _, md := range models {
			if cheap && md.m != dataCache && (p.name == "g72" || p.name == "jcmarker") {
				continue
			}
			prog := compile(t, p.src)
			popts := passes.Default()
			popts.ICacheModeled = md.m == instrCache
			if _, err := passes.Run(prog, popts); err != nil {
				t.Fatalf("%s: passes: %v", p.name, err)
			}
			for _, s := range strategies {
				label := fmt.Sprintf("%s/%s/%v", p.name, md.name, s)
				opts := DefaultOptions()
				opts.Strategy = s
				if p.name == "jcmarker" && md.m != dataCache {
					opts.Cache = setAssocConfig
				}
				e, err := prepare(prog, opts, md.m)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := e.run(t.Context()); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if slots := checkLaneVerdicts(t, label, e); slots == 0 {
					t.Fatalf("%s: no lane slot reached", label)
				}
			}
		}
	}
}

// checkLaneVerdicts re-walks every lane slot of a converged engine and
// returns how many it checked.
func checkLaneVerdicts(t *testing.T, label string, e *engine) int {
	t.Helper()
	slots := 0
	for n, lanes := range e.Lane {
		bs := &e.steps.blocks[n]
		for _, slot := range lanes {
			if slot.dirty {
				t.Fatalf("%s: block %d color %d still dirty at the fixpoint", label, n, slot.color)
			}
			if slot.st.IsBottom {
				continue
			}
			st := slot.st.Clone()
			var want []cache.Classification
			for i, acc := range bs.spec {
				if slot.budget <= bs.steps[i].pos {
					break
				}
				want = append(want, e.dom.Classify(st, acc))
				e.dom.Transfer(st, acc)
			}
			if !slices.Equal(slot.verdicts, want) {
				t.Fatalf("%s: block %d color %d budget %d kept verdicts %v, its final value walks to %v",
					label, n, slot.color, slot.budget, slot.verdicts, want)
			}
			slots++
		}
	}
	return slots
}
