package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/cache"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/passes"
)

// laneModels are the three analysis models, by name.
var laneModels = []struct {
	name string
	m    model
}{{"data", dataCache}, {"icache", instrCache}, {"persist", persistence}}

var laneStrategies = []Strategy{StrategyJustInTime, StrategyMergeAtRollback, StrategyPerRollbackBlock}

// corpusSource returns the source of one program of the paper corpus: Fig. 2,
// or a kernel, with side-channel kernels wrapped in the 4 KiB client.
func corpusSource(t *testing.T, name string) string {
	t.Helper()
	src, err := bench.CorpusSource(name)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// compileWithPasses compiles a program with the default passes, as every
// analysis model compiles it.
func compileWithPasses(t *testing.T, name, src string) *ir.Program {
	t.Helper()
	prog := compile(t, src)
	if _, err := passes.Run(prog, passes.Default()); err != nil {
		t.Fatalf("%s: passes: %v", name, err)
	}
	return prog
}

// converge runs an engine to its fixpoint.
func converge(t *testing.T, label string, prog *ir.Program, opts Options, m model) *engine {
	t.Helper()
	e, err := prepare(prog, opts, m)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := e.run(context.Background()); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return e
}

// TestLaneVerdictsMatchFinalWalk: classify takes each lane slot's wrong-path
// verdicts from the slot's last walk instead of walking the lane again. That
// is exact only if every slot's last walk used the slot's final state and
// budget. Re-walk every slot from its final value with Transfer and
// Classify, under laneWalk's positional budget and fence cut-off, and
// require the recorded verdicts: on fig2, des, g72 and jcmarker, compiled
// with the default passes, under every merge strategy and all three
// analysis models, on the paper's cache; jcmarker's i-cache and persistence
// analyses also run at 64 sets × 8 ways. Under -race or -short, g72 and
// jcmarker run only the data-cache model.
func TestLaneVerdictsMatchFinalWalk(t *testing.T) {
	cheap := raceDetectorOn || testing.Short()
	for _, name := range []string{"fig2", "des", "g72", "jcmarker"} {
		src := corpusSource(t, name)
		for _, md := range laneModels {
			if cheap && md.m != dataCache && (name == "g72" || name == "jcmarker") {
				continue
			}
			caches := []layout.CacheConfig{DefaultOptions().Cache}
			if name == "jcmarker" && md.m != dataCache {
				caches = append(caches, setAssocConfig)
			}
			prog := compileWithPasses(t, name, src)
			for _, cc := range caches {
				for _, s := range laneStrategies {
					label := fmt.Sprintf("%s/%s/%v/%d×%d", name, md.name, s, cc.NumSets, cc.Assoc)
					opts := DefaultOptions()
					opts.Strategy = s
					opts.Cache = cc
					e := converge(t, label, prog, opts, md.m)
					if slots := checkLaneVerdicts(t, label, e); slots == 0 {
						t.Fatalf("%s: no lane slot reached", label)
					}
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

// TestAcyclicFlowsWalkedOnce is the single-pass contract of the lane drain
// and the vn_stop merge: on an effective CFG with no WTO component, the
// engine walks every flow once, at its final value. Its counters must then
// be what one walk of each final flow costs: one iteration per block whose
// normal state is live; the block's steps once per live normal flow and per
// live SS flow away from its vn_stop (there the SS flow merges into the
// normal state instead); and one wrong-path transfer per verdict a lane slot
// kept. It checks every acyclic program of the corpus under the data-cache
// model, and hash, chacha20, jcmarker and stc under the i-cache and
// persistence models, with every merge strategy. Under -race or -short only
// fig2, hash and jcmarker run.
func TestAcyclicFlowsWalkedOnce(t *testing.T) {
	cheap := raceDetectorOn || testing.Short()
	cheapSet := map[string]bool{"fig2": true, "hash": true, "jcmarker": true}
	allModels := map[string]bool{"hash": true, "chacha20": true, "jcmarker": true, "stc": true}
	names := []string{"fig2"}
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	checked := 0
	for _, name := range names {
		if cheap && !cheapSet[name] {
			continue
		}
		src := corpusSource(t, name)
		for _, md := range laneModels {
			if md.m != dataCache && !allModels[name] {
				continue
			}
			prog := compileWithPasses(t, name, src)
			for _, s := range laneStrategies {
				label := fmt.Sprintf("%s/%s/%v", name, md.name, s)
				opts := DefaultOptions()
				opts.Strategy = s
				e := converge(t, label, prog, opts, md.m)
				if e.wto.NumComponents > 0 {
					if md.m != dataCache || cheapSet[name] {
						t.Fatalf("%s: %d WTO components, want an acyclic CFG", label, e.wto.NumComponents)
					}
					break
				}
				checkWalkedOnce(t, label, e)
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no acyclic program checked")
	}
	t.Logf("%d acyclic analyses walk each flow once", checked)
}

// checkWalkedOnce compares a converged engine's walk counters with the cost
// of walking each of its final flows once.
func checkWalkedOnce(t *testing.T, label string, e *engine) {
	t.Helper()
	var iters, transfers, specTransfers int64
	for n := range e.S {
		steps := int64(len(e.steps.blocks[n].steps))
		if !e.S[n].IsBottom {
			iters++
			transfers += steps
		}
		for _, slot := range e.SS[n] {
			if !slot.st.IsBottom && e.colors[slot.color].Stop != ir.BlockID(n) {
				transfers += steps
			}
		}
		for _, slot := range e.Lane[n] {
			specTransfers += int64(len(slot.verdicts))
		}
	}
	for _, c := range []struct {
		counter   string
		got, want int64
	}{
		{"iterations", int64(e.iter), iters},
		{"transfers", e.stats.Transfers, transfers},
		{"spec_transfers", e.stats.SpecTransfers, specTransfers},
	} {
		if c.got != c.want {
			t.Errorf("%s: %s = %d, walking each final flow once costs %d", label, c.counter, c.got, c.want)
		}
	}
}
