package specabsint

import (
	"fmt"
	"runtime"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/ir"
)

// The analyzer has one engine and one schedule, but runs the schedule either
// densely or split into independent cache-set groups (WithSetParallelism).
// The tests here check that the split is invisible and the engine is
// deterministic: verdicts, the WCET estimate, the stats document and
// synthesized fence sets are byte-identical at every parallelism level and
// across repeated runs. The corpus digest golden pins what the dense run
// computes; these tests pin that every other way of running it agrees.

// equivParallelisms returns the SetParallelism levels each sweep compares
// against the dense run. Level 0 is repeated on purpose: a second dense run
// must reproduce the first.
func equivParallelisms() []int {
	if raceDetectorOn || testing.Short() {
		return []int{0, 2, runtime.NumCPU()}
	}
	return []int{0, 1, 4, runtime.NumCPU()}
}

// TestSchedulerEquivalenceCorpus: on every corpus program, the
// classifications, leaks, gadgets and WCET estimate at SetParallelism 0, 1,
// 4 and NumCPU are byte-identical to the dense run's. Under -race or -short
// only the digest golden's cheap slice is swept.
func TestSchedulerEquivalenceCorpus(t *testing.T) {
	cheap := raceDetectorOn || testing.Short()
	for _, cp := range paperCorpus() {
		if cheap && !corpusDigestCheap[cp.name] {
			continue
		}
		t.Run(cp.name, func(t *testing.T) {
			p, err := CompileOpts(cp.src)
			if err != nil {
				t.Fatal(err)
			}
			render := func(par int) string {
				t.Helper()
				rep, err := AnalyzeContext(t.Context(), p, WithSetParallelism(par))
				if err != nil {
					t.Fatalf("parallelism=%d: %v", par, err)
				}
				return execReportText(rep)
			}
			want := render(0)
			for _, par := range equivParallelisms() {
				if got := render(par); got != want {
					t.Errorf("parallelism=%d: results differ from the dense run:\n got:\n%s\nwant:\n%s", par, got, want)
				}
			}
		})
	}
}

// TestSchedulerStatsDeterministic pins the stats contract: with wall clock
// zeroed, the rendered stats document is byte-identical across
// SetParallelism levels and across repeated runs.
func TestSchedulerStatsDeterministic(t *testing.T) {
	kernels := map[string]string{"fig2": bench.Fig2Program(-1)}
	if !raceDetectorOn && !testing.Short() {
		kernels["jcmarker"] = mustKernel(t, "jcmarker")
	}
	for name, src := range kernels {
		t.Run(name, func(t *testing.T) {
			render := func(par int) string {
				t.Helper()
				out, err := statsFor(t, src, par).JSON()
				if err != nil {
					t.Fatal(err)
				}
				return string(out)
			}
			want := render(0)
			for _, par := range equivParallelisms() {
				if got := render(par); got != want {
					t.Errorf("parallelism=%d: stats differ from the dense run:\n got %s\nwant %s", par, got, want)
				}
			}
		})
	}
}

// TestExecStatsEquivalence pins the stats document's bytecode section to
// the program the engine ran: its block, access-step, wrong-path-step and
// fenced-block counts equal a direct count over the compiled IR, at
// SetParallelism 0 and 4 (the set-group engines share one step program, so
// partitioning must not multiply it). fig2's fenced twin, from Mitigate,
// makes the wrong-path and fenced counts differ from the unfenced ones.
func TestExecStatsEquivalence(t *testing.T) {
	kernels := map[string]string{"fig2": bench.Fig2Program(-1)}
	if !raceDetectorOn && !testing.Short() {
		kernels["jcmarker"] = mustKernel(t, "jcmarker")
	}
	for name, src := range kernels {
		t.Run(name, func(t *testing.T) {
			p, err := CompileOpts(src, WithStats(true))
			if err != nil {
				t.Fatal(err)
			}
			progs := []*CompiledProgram{p}
			if name == "fig2" {
				mrep, err := Mitigate(t.Context(), p, WithMitigateVerify(false))
				if err != nil {
					t.Fatal(err)
				}
				if len(mrep.Fences) == 0 {
					t.Fatal("Mitigate placed no fence on fig2")
				}
				progs = append(progs, mrep.Program)
			}
			for i, p := range progs {
				want := accessShape(p.Internal())
				if want.ArchSteps == 0 {
					t.Fatalf("program %d has no memory access", i)
				}
				if fenced := want.FencedBlocks > 0; fenced != (i == 1) {
					t.Fatalf("program %d: fenced blocks = %d", i, want.FencedBlocks)
				}
				for _, par := range []int{0, 4} {
					if got := analyzeStats(t, p, par).Bytecode; got != want {
						t.Errorf("program %d parallelism=%d: bytecode section %+v, IR count %+v", i, par, got, want)
					}
				}
			}
		})
	}
}

// accessShape counts prog's access steps straight from its instructions:
// every load and store is an architectural step, and those before their
// block's first fence are also wrong-path steps.
func accessShape(prog *ir.Program) BytecodeStats {
	s := BytecodeStats{Blocks: int64(len(prog.Blocks))}
	for _, b := range prog.Blocks {
		fenced := false
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpFence:
				if !fenced {
					s.FencedBlocks++
				}
				fenced = true
			case ir.OpLoad, ir.OpStore:
				s.ArchSteps++
				if !fenced {
					s.SpecSteps++
				}
			}
		}
	}
	return s
}

// statsFor compiles and analyzes src with stats on at the given
// parallelism and returns the stats with wall clock zeroed.
func statsFor(t *testing.T, src string, par int) *Stats {
	t.Helper()
	p, err := CompileOpts(src, WithStats(true))
	if err != nil {
		t.Fatal(err)
	}
	return analyzeStats(t, p, par)
}

// analyzeStats analyzes p with stats on at the given parallelism and returns
// the stats with wall clock zeroed.
func analyzeStats(t *testing.T, p *CompiledProgram, par int) *Stats {
	t.Helper()
	rep, err := AnalyzeContext(t.Context(), p, WithStats(true), WithSetParallelism(par))
	if err != nil {
		t.Fatal(err)
	}
	rep.Stats.ZeroTimes()
	return rep.Stats
}

// TestExecMitigateEquivalence: on every leak-reporting corpus program, the
// synthesized fence set (placements, residuals, WCET bounds) is identical
// whichever parallelism drives the greedy search's re-analyses, and the
// search's own final analysis agrees with a fresh analysis of the fenced
// program it returns.
func TestExecMitigateEquivalence(t *testing.T) {
	cheap := raceDetectorOn || testing.Short()
	for _, cp := range paperCorpus() {
		if !corpusDigestMitigate[cp.name] || (cheap && !corpusDigestCheap[cp.name]) {
			continue
		}
		t.Run(cp.name, func(t *testing.T) {
			p, err := CompileOpts(cp.src)
			if err != nil {
				t.Fatal(err)
			}
			mitigate := func(par int) *MitigationReport {
				t.Helper()
				mrep, err := Mitigate(t.Context(), p, WithSetParallelism(par))
				if err != nil {
					t.Fatalf("parallelism=%d: %v", par, err)
				}
				return mrep
			}
			render := func(m *MitigationReport) string {
				return fmt.Sprintf("fences=%v residualLeaks=%d residualGadgets=%d wcet=%d->%d bounded=%v",
					m.Fences, m.ResidualLeaks, m.ResidualGadgets,
					m.BaselineWCET, m.MitigatedWCET, m.WCETBounded)
			}
			dense := mitigate(0)
			if dense.BaselineLeaks+dense.BaselineGadgets == 0 {
				t.Fatal("program reports no leak; the synthesizer has nothing to repair")
			}
			want := render(dense)
			if got := render(mitigate(4)); got != want {
				t.Errorf("fence sets differ between parallelism 4 and the dense run:\n got %s\nwant %s", got, want)
			}

			after, err := AnalyzeContext(t.Context(), dense.Program)
			if err != nil {
				t.Fatal(err)
			}
			residual := dense.ResidualLeaks+dense.ResidualGadgets > 0
			if reported := after.LeakDetected || len(after.SpectreGadgets) > 0; reported != residual {
				t.Errorf("fresh analysis of the fenced program reports leaks=%v, the search's residual %d/%d",
					reported, dense.ResidualLeaks, dense.ResidualGadgets)
			}
			if got := after.WCET.WorstCaseCycles; got != dense.MitigatedWCET {
				t.Errorf("fresh analysis of the fenced program bounds WCET at %d, the search at %d", got, dense.MitigatedWCET)
			}
		})
	}
}
