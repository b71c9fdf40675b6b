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
// No block may be left with a dirty flow, nor any SS or lane slot flagged
// dirty, and walking any final normal or SS flow through its block once
// more must give a state its successors already cover, and the verdicts the
// flow kept from its last walk; an SS flow at its vn_stop must be covered by
// the normal state it merges into.
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
			prog := compileWithPasses(t, name, src)
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
			prog := compileRolled(t, src)
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
// one trip left rolled, and the default passes.
func compileRolled(t *testing.T, src string) *ir.Program {
	t.Helper()
	ast, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	prog, err := lower.Lower(ast, lower.Options{MaxUnroll: 1})
	if err != nil {
		t.Fatalf("lower: %v\n%s", err, src)
	}
	if _, err := passes.Run(prog, passes.Default()); err != nil {
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
			for _, s := range e.wto.Succs[n] {
				if !e.dom.Leq(out, e.S[s]) {
					t.Fatalf("%s: normal flow of block %d walks to a state S[%d] does not cover", label, n, s)
				}
			}
		}
		for _, slot := range e.SS[n] {
			if slot.dirty {
				t.Fatalf("%s: block %d SS slot of color %d from %d still dirty at the fixpoint", label, n, slot.color, slot.src)
			}
			if slot.st.IsBottom {
				continue
			}
			if e.colors[slot.color].stop == b {
				if !e.dom.Leq(slot.st, e.S[n]) {
					t.Fatalf("%s: SS flow of color %d from %d at its vn_stop %d is not covered by S", label, slot.color, slot.src, n)
				}
				continue
			}
			out, _ := e.transferBlock(block, slot.st, &verdicts)
			if !slices.Equal(verdicts, slot.verdicts) {
				t.Fatalf("%s: SS flow of color %d from %d at block %d kept verdicts %v, its final value walks to %v", label, slot.color, slot.src, n, slot.verdicts, verdicts)
			}
			for _, s := range e.wto.Succs[n] {
				if i := e.ssIndex(s, slot.color, slot.src); i < 0 || !e.dom.Leq(out, e.SS[s][i].st) {
					t.Fatalf("%s: SS flow of color %d from %d at block %d walks to a state its slot at %d does not cover", label, slot.color, slot.src, n, s)
				}
			}
		}
	}
}
