package specabsint

import (
	"context"

	"specabsint/internal/mitigate"
	"specabsint/internal/obs"
	"specabsint/internal/runner"
	"specabsint/internal/wcet"
)

// FencePlacement describes one synthesized speculation barrier: the fence is
// inserted immediately before the instruction at Index in the block named
// Block (coordinates of the *input* program's IR).
type FencePlacement struct {
	// Block is the containing block's label.
	Block string
	// Index is the instruction index the fence precedes.
	Index int
	// Line is the source line of the protected instruction.
	Line int
	// Symbol names the protected access's variable, or "" when the fence
	// anchors a speculation-window entry rather than a memory access.
	Symbol string
}

// String renders the placement for reports.
func (f FencePlacement) String() string {
	return mitigate.Fence{Label: f.Block, Index: f.Index, Line: f.Line, Symbol: f.Symbol}.String()
}

// MitigationReport is the outcome of one Mitigate run: the synthesized fence
// set, the leak counts before and after, the search effort, the WCET cost of
// the repair, and the verification verdict.
type MitigationReport struct {
	// Fences is the synthesized placement set, sorted by block then index.
	Fences []FencePlacement
	// BaselineLeaks / BaselineGadgets count the input program's reported
	// side channels and Spectre gadgets.
	BaselineLeaks   int
	BaselineGadgets int
	// ResidualLeaks / ResidualGadgets count what survives the fence set.
	// Nonzero residual leaks are not speculation-induced — the classic
	// non-speculative analysis reports them too, and no fence removes them.
	ResidualLeaks   int
	ResidualGadgets int
	// Candidates counts seeded fence sites; Analyses the re-analysis runs
	// the search spent.
	Candidates int
	Analyses   int
	// BaselineWCET / MitigatedWCET are the worst-case cycle bounds (plus the
	// pessimistic speculative charge), -1 when the CFG is cyclic;
	// WCETBounded reports whether both bounds exist.
	BaselineWCET  int64
	MitigatedWCET int64
	WCETBounded   bool
	// OverheadPercent is 100*(MitigatedWCET-BaselineWCET)/BaselineWCET,
	// rounded to two decimals; 0 when unbounded. Negative overhead is real:
	// killing speculation also removes wrong-path misses from the bound.
	OverheadPercent float64
	// Verified reports that the differential secret-pair trace check ran on
	// the fenced program and found no unreported secret-varying pair;
	// VerifySkipped that it could not run (no secrets, secret-dependent
	// control flow, or WithMitigateVerify(false)). Traces counts replays.
	Verified      bool
	VerifySkipped bool
	Traces        int
	// Program is the fenced program, ready for re-analysis or dumping (the
	// input program itself when Fences is empty).
	Program *CompiledProgram
}

// Mitigate synthesizes a low-cost fence set that makes the speculation-aware
// analysis report zero speculation-induced leaks on p, verifies the repaired
// program structurally (and, with MitigateVerify, differentially against the
// concrete speculative machine), and reports the result. The analysis the
// repair loop must satisfy is configured by opts exactly like AnalyzeContext;
// speculation is always on (fencing the classic analysis is meaningless).
// p is not modified.
func Mitigate(ctx context.Context, p *CompiledProgram, opts ...Option) (*MitigationReport, error) {
	return mitigateConfig(ctx, p, newConfig(opts))
}

func mitigateConfig(ctx context.Context, p *CompiledProgram, cfg Config) (*MitigationReport, error) {
	mopts := mitigate.DefaultOptions()
	mopts.Core = cfg.coreOptions()
	mopts.Costs = wcet.DefaultCosts()
	mopts.Verify = cfg.MitigateVerify
	rep, err := mitigate.Synthesize(ctx, p.prog, mopts)
	if err != nil {
		return nil, wrapErr(err)
	}
	out := &MitigationReport{
		BaselineLeaks:   rep.BaselineLeaks,
		BaselineGadgets: rep.BaselineGadgets,
		ResidualLeaks:   rep.ResidualLeaks,
		ResidualGadgets: rep.ResidualGadgets,
		Candidates:      rep.Candidates,
		Analyses:        rep.Analyses,
		BaselineWCET:    rep.BaselineWCET,
		MitigatedWCET:   rep.MitigatedWCET,
		WCETBounded:     rep.WCETBounded,
		OverheadPercent: rep.OverheadPercent,
		Verified:        rep.Verified,
		VerifySkipped:   rep.VerifySkipped,
		Traces:          rep.Traces,
	}
	for _, f := range rep.Fences {
		out.Fences = append(out.Fences, FencePlacement{
			Block:  f.Label,
			Index:  f.Index,
			Line:   f.Line,
			Symbol: f.Symbol,
		})
	}
	if rep.Program == p.prog {
		out.Program = p
	} else {
		// The fenced program gets a fresh compile-time snapshot: its shape
		// changed, and the input's pass/phase history does not describe it.
		out.Program = &CompiledProgram{
			prog:  rep.Program,
			stats: &obs.Stats{Program: runner.ProgramStats(rep.Program)},
		}
	}
	return out, nil
}
