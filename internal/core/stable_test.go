package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/cache"
	"specabsint/internal/gen"
	"specabsint/internal/ir"
	"specabsint/internal/lower"
	"specabsint/internal/passes"
	"specabsint/internal/source"
)

// TestFixpointIsStable: when run returns, the sweep has reached a fixpoint.
// No normal, SS or lane flow may be left dirty, and walking any final normal
// or SS flow through its block once more must give a state its successors
// already cover, and the verdicts the flow kept from its last walk; an SS
// flow at its vn_stop must be covered by the normal state it merges into.
// It checks every corpus program under the three analysis models, and 120
// gen.Sized(2) programs, lowered with MaxUnroll 1 so that their loops
// survive, under every model and merge strategy. Under -race or -short it
// checks fig2, g72 and hash under the data-cache model, and 20 generated
// programs.
func TestFixpointIsStable(t *testing.T) {
	cheap := raceDetectorOn || testing.Short()
	cheapSet := map[string]bool{"fig2": true, "g72": true, "hash": true}
	names := []string{"fig2"}
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	cyclic := 0
	for _, name := range names {
		if cheap && !cheapSet[name] {
			continue
		}
		src := corpusSource(t, name)
		for _, md := range laneModels {
			if cheap && md.m != dataCache {
				continue
			}
			prog := compileForModel(t, name, src, md.m)
			label := fmt.Sprintf("%s/%s", name, md.name)
			e := converge(t, label, prog, DefaultOptions(), md.m)
			checkStable(t, label, e)
			if e.wto.NumComponents > 0 {
				cyclic++
			}
		}
	}
	programs := 120
	if cheap {
		programs = 20
	}
	for seed := 1; seed <= programs; seed++ {
		src := gen.Program(rand.New(rand.NewSource(int64(seed))), gen.Sized(2))
		for _, md := range laneModels {
			prog := compileRolled(t, src, md.m)
			for _, s := range laneStrategies {
				label := fmt.Sprintf("gen%d/%s/%v", seed, md.name, s)
				opts := DefaultOptions()
				opts.Strategy = s
				e := converge(t, label, prog, opts, md.m)
				checkStable(t, label, e)
				if e.wto.NumComponents > 0 {
					cyclic++
				}
			}
		}
	}
	if cyclic == 0 {
		t.Fatal("no analysis with a WTO component checked")
	}
	t.Logf("%d analyses with WTO components are stable", cyclic)
}

// compileRolled compiles a generated program with every loop of more than
// one trip left rolled, and the default passes as the analysis model needs
// them.
func compileRolled(t *testing.T, src string, m model) *ir.Program {
	t.Helper()
	ast, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	prog, err := lower.Lower(ast, lower.Options{MaxUnroll: 1})
	if err != nil {
		t.Fatalf("lower: %v\n%s", err, src)
	}
	popts := passes.Default()
	popts.ICacheModeled = m == instrCache
	if _, err := passes.Run(prog, popts); err != nil {
		t.Fatalf("passes: %v\n%s", err, src)
	}
	return prog
}

// checkStable fails the test at the first flow of a converged engine that
// is dirty or not covered by its targets.
func checkStable(t *testing.T, label string, e *engine) {
	t.Helper()
	var verdicts []cache.Classification
	for n := range e.S {
		b := ir.BlockID(n)
		if e.dirty(b) {
			t.Fatalf("%s: block %d has a dirty flow at the fixpoint", label, n)
		}
		for _, slot := range e.Lane[n] {
			if slot.dirty {
				t.Fatalf("%s: block %d color %d lane still dirty at the fixpoint", label, n, slot.color)
			}
		}
		block := e.prog.Block(b)
		if !e.S[n].IsBottom {
			out, _ := e.transferBlock(block, e.S[n], &verdicts)
			if !slices.Equal(verdicts, e.verdictS[n]) {
				t.Fatalf("%s: normal flow of block %d kept verdicts %v, its final value walks to %v", label, n, e.verdictS[n], verdicts)
			}
			for _, s := range e.succs[n] {
				if !e.dom.Leq(out, e.S[s]) {
					t.Fatalf("%s: normal flow of block %d walks to a state S[%d] does not cover", label, n, s)
				}
			}
			e.pool.Put(out)
		}
		for pid, st := range e.SS[n] {
			if st.IsBottom {
				continue
			}
			if e.parts[pid].color.stop == b {
				if !e.dom.Leq(st, e.S[n]) {
					t.Fatalf("%s: SS flow %d at its vn_stop %d is not covered by S", label, pid, n)
				}
				continue
			}
			out, _ := e.transferBlock(block, st, &verdicts)
			if kept := *e.keptSS(b, pid); !slices.Equal(verdicts, kept) {
				t.Fatalf("%s: SS flow %d of block %d kept verdicts %v, its final value walks to %v", label, pid, n, kept, verdicts)
			}
			for _, s := range e.succs[n] {
				if next, ok := e.SS[s][pid]; !ok || !e.dom.Leq(out, next) {
					t.Fatalf("%s: SS flow %d of block %d walks to a state SS[%d] does not cover", label, pid, n, s)
				}
			}
			e.pool.Put(out)
		}
	}
}
