package mitigate

import (
	"context"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/ir"
	"specabsint/internal/runner"
	"specabsint/internal/sidechannel"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, _, err := runner.Compile(src, 0, false)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// TestSynthesizeFig2 runs the synthesizer on the paper's Fig. 2 program: the
// leak is purely speculation-induced (the classic analysis reports none), so
// the fence set must drive residual leaks to zero, and the fenced program
// must show no secret-varying trace pair.
func TestSynthesizeFig2(t *testing.T) {
	prog := compile(t, bench.Fig2Program(-1))
	rep, err := Synthesize(context.Background(), prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineLeaks == 0 {
		t.Fatal("fig2 must report a baseline leak")
	}
	if rep.ResidualLeaks != 0 || rep.ResidualGadgets != 0 {
		t.Fatalf("residual leaks %d / gadgets %d, want 0/0 (fences: %v)",
			rep.ResidualLeaks, rep.ResidualGadgets, rep.Fences)
	}
	if len(rep.Fences) == 0 {
		t.Fatal("zero fences synthesized for a leaking program")
	}
	if rep.Program.FenceCount() != len(rep.Fences) {
		t.Fatalf("fenced program has %d fences, report lists %d",
			rep.Program.FenceCount(), len(rep.Fences))
	}
	if rep.VerifySkipped {
		t.Fatal("differential verification skipped (fig2 has a secret reg)")
	}
	if !rep.Verified {
		t.Fatal("fenced fig2 still shows a secret-varying trace pair")
	}
	if !rep.WCETBounded {
		t.Fatal("fig2 is acyclic after unrolling; WCET must stay bounded")
	}
	// Independent re-analysis of the fenced program must agree.
	after, err := sidechannel.AnalyzeContext(context.Background(), rep.Program, DefaultOptions().Core)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Leaks) != 0 || len(after.SpectreLeaks) != 0 {
		t.Fatalf("re-analysis of fenced program reports %d leaks, %d gadgets",
			len(after.Leaks), len(after.SpectreLeaks))
	}
}

// TestSynthesizeDeterministic pins the search's determinism: two runs on the
// same program produce identical fence sets and reports.
func TestSynthesizeDeterministic(t *testing.T) {
	run := func() *Report {
		prog := compile(t, bench.Fig2Program(-1))
		rep, err := Synthesize(context.Background(), prog, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if len(a.Fences) != len(b.Fences) {
		t.Fatalf("fence counts differ: %d vs %d", len(a.Fences), len(b.Fences))
	}
	for i := range a.Fences {
		if a.Fences[i] != b.Fences[i] {
			t.Fatalf("fence %d differs: %v vs %v", i, a.Fences[i], b.Fences[i])
		}
	}
	if a.Analyses != b.Analyses || a.MitigatedWCET != b.MitigatedWCET {
		t.Fatalf("effort/wcet differ: %d/%d vs %d/%d",
			a.Analyses, a.MitigatedWCET, b.Analyses, b.MitigatedWCET)
	}
}

// TestSynthesizeResidualHonest runs the synthesizer on the des kernel, whose
// leak exists under the classic analysis too: no fence set can remove it, and
// the report must say so instead of claiming success.
func TestSynthesizeResidualHonest(t *testing.T) {
	b, ok := bench.ByName("des")
	if !ok {
		t.Fatal("des not in corpus")
	}
	prog := compile(t, bench.WithClient(b, 1024))
	opts := DefaultOptions()
	opts.Verify = false // residual leaks are expected; the trace check is moot
	rep, err := Synthesize(context.Background(), prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineLeaks == 0 {
		t.Fatal("des must report a baseline leak")
	}
	if rep.ResidualLeaks == 0 {
		t.Fatal("des's classic leak cannot be fence-fixable; residual must be nonzero")
	}
	if rep.ResidualLeaks > rep.BaselineLeaks {
		t.Fatalf("fencing grew the leak set: %d -> %d", rep.BaselineLeaks, rep.ResidualLeaks)
	}
}

// TestSynthesizeCleanProgram pins the no-op path: a program without leaks
// needs no fences and comes back unchanged.
func TestSynthesizeCleanProgram(t *testing.T) {
	b, ok := bench.ByName("jcmarker")
	if !ok {
		t.Fatal("jcmarker not in corpus")
	}
	prog := compile(t, b.Code)
	rep, err := Synthesize(context.Background(), prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineLeaks != 0 || rep.BaselineGadgets != 0 {
		t.Fatalf("jcmarker reports %d leaks / %d gadgets, expected clean",
			rep.BaselineLeaks, rep.BaselineGadgets)
	}
	if len(rep.Fences) != 0 {
		t.Fatalf("clean program got %d fences", len(rep.Fences))
	}
	if rep.Program != prog {
		t.Fatal("clean program must come back unchanged (same *ir.Program)")
	}
}

// TestBuildFencedMapping pins the id mapping buildFenced returns: every
// non-fence instruction maps to its input id, fences map to -1, and the
// fenced program finalizes consistently.
func TestBuildFencedMapping(t *testing.T) {
	prog := compile(t, bench.Fig2Program(-1))
	var sites []site
	for _, b := range prog.Blocks[:2] {
		if len(b.Instrs) > 1 {
			sites = append(sites, site{block: b.ID, index: 1})
		}
	}
	if len(sites) == 0 {
		t.Skip("program too small")
	}
	fenced, origID := buildFenced(prog, sites)
	if fenced.NumInstrs != prog.NumInstrs+len(sites) {
		t.Fatalf("fenced has %d instrs, want %d", fenced.NumInstrs, prog.NumInstrs+len(sites))
	}
	if len(origID) != fenced.NumInstrs {
		t.Fatalf("origID has %d entries, want %d", len(origID), fenced.NumInstrs)
	}
	fences, next := 0, 0
	for _, b := range fenced.Blocks {
		for i := range b.Instrs {
			id := b.Instrs[i].ID
			if b.Instrs[i].Op == ir.OpFence {
				if origID[id] != -1 {
					t.Fatalf("fence id %d maps to %d, want -1", id, origID[id])
				}
				fences++
				continue
			}
			if origID[id] != next {
				t.Fatalf("instr id %d maps to %d, want %d", id, origID[id], next)
			}
			next++
		}
	}
	if fences != len(sites) {
		t.Fatalf("%d fences inserted, want %d", fences, len(sites))
	}
}
