package specabsint

import (
	"context"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/ir"
)

// The analyzer has one engine, one schedule and one dense fixpoint. The
// tests here check that it is deterministic and that the stats document
// describes the program it ran: verdicts, the WCET estimate and the stats
// document are byte-identical across repeated runs. The corpus digest
// goldens pin what the run computes.

// TestSchedulerEquivalenceCorpus: on every corpus program, a repeated run's
// classifications, leaks, gadgets and WCET estimate are byte-identical to
// the first run's. Under -race or -short only the digest golden's cheap
// slice is swept.
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
			render := func() string {
				t.Helper()
				rep, err := AnalyzeContext(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				return execReportText(rep)
			}
			if want, got := render(), render(); got != want {
				t.Errorf("a repeated run differs from the first:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestSchedulerStatsDeterministic pins the stats contract: with wall clock
// zeroed, the rendered stats document is byte-identical across repeated
// runs.
func TestSchedulerStatsDeterministic(t *testing.T) {
	kernels := map[string]string{"fig2": bench.Fig2Program(-1)}
	if !raceDetectorOn && !testing.Short() {
		kernels["jcmarker"] = mustKernel(t, "jcmarker")
	}
	for name, src := range kernels {
		t.Run(name, func(t *testing.T) {
			render := func() string {
				t.Helper()
				out, err := statsFor(t, src).JSON()
				if err != nil {
					t.Fatal(err)
				}
				return string(out)
			}
			if want, got := render(), render(); got != want {
				t.Errorf("a repeated run's stats differ from the first:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestExecStatsEquivalence pins the stats document's bytecode section to
// the program the engine ran: its block, access-step, wrong-path-step and
// fenced-block counts equal a direct count over the compiled IR. fig2's
// fenced twin, from Mitigate, makes the wrong-path and fenced counts differ
// from the unfenced ones.
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
				mrep, err := Mitigate(context.Background(), p, WithMitigateVerify(false))
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
				if got := analyzeStats(t, p).Bytecode; got != want {
					t.Errorf("program %d: bytecode section %+v, IR count %+v", i, got, want)
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

// statsFor compiles and analyzes src with stats on and returns the stats
// with wall clock zeroed.
func statsFor(t *testing.T, src string) *Stats {
	t.Helper()
	p, err := CompileOpts(src, WithStats(true))
	if err != nil {
		t.Fatal(err)
	}
	return analyzeStats(t, p)
}

// analyzeStats analyzes p with stats on and returns the stats with wall
// clock zeroed.
func analyzeStats(t *testing.T, p *CompiledProgram) *Stats {
	t.Helper()
	rep, err := AnalyzeContext(context.Background(), p, WithStats(true))
	if err != nil {
		t.Fatal(err)
	}
	rep.Stats.ZeroTimes()
	return rep.Stats
}

// TestExecMitigateEquivalence: on every leak-reporting corpus program, the
// greedy fence search's own final analysis agrees with a fresh analysis of
// the fenced program it returns. fig2, acyclic after unrolling, keeps a
// bounded WCET before and after the repair.
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
			mrep, err := Mitigate(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if mrep.BaselineLeaks+mrep.BaselineGadgets == 0 {
				t.Fatal("program reports no leak; the synthesizer has nothing to repair")
			}

			after, err := AnalyzeContext(context.Background(), mrep.Program)
			if err != nil {
				t.Fatal(err)
			}
			residual := mrep.ResidualLeaks+mrep.ResidualGadgets > 0
			if reported := after.LeakDetected || len(after.SpectreGadgets) > 0; reported != residual {
				t.Errorf("fresh analysis of the fenced program reports leaks=%v, the search's residual %d/%d",
					reported, mrep.ResidualLeaks, mrep.ResidualGadgets)
			}
			if got := after.WCET.WorstCaseCycles; got != mrep.MitigatedWCET {
				t.Errorf("fresh analysis of the fenced program bounds WCET at %d, the search at %d", got, mrep.MitigatedWCET)
			}
			if cp.name == "fig2" && (!mrep.WCETBounded || mrep.BaselineWCET <= 0 || mrep.MitigatedWCET <= 0) {
				t.Errorf("fig2 WCET bounds missing: bounded %v, baseline %d, mitigated %d",
					mrep.WCETBounded, mrep.BaselineWCET, mrep.MitigatedWCET)
			}
		})
	}
}
