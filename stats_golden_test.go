package specabsint

import (
	"context"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/obs"
)

// TestGoldenStats pins the full -stats=json document for the paper's Fig. 2
// program and the two benchmark kernels the perf work is measured on. Phase
// wall clock is zeroed (ZeroTimes) so the files are byte-stable; everything
// else in the document is part of the deterministic stats contract, and any
// engine change that alters a semantic counter must update these files
// consciously (run `go test -run TestGoldenStats -update`).
func TestGoldenStats(t *testing.T) {
	cases := []struct {
		name string
		src  func() string
	}{
		{"fig2", func() string { return bench.Fig2Program(-1) }},
		{"g72", func() string { return mustKernel(t, "g72") }},
		{"jcmarker", func() string { return mustKernel(t, "jcmarker") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithStats(true)}
			p, err := CompileOpts(tc.src(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := AnalyzeContext(context.Background(), p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stats == nil {
				t.Fatal("WithStats(true) produced no stats")
			}
			st := rep.Stats
			// The lane count is the colors the engine built: two per
			// unresolved branch (jcmarker resolves 128 statically).
			if lanes := st.Program.Lanes(); int64(lanes) != st.Fixpoint.Colors {
				t.Errorf("Lanes() = %d, the engine built %d colors", lanes, st.Fixpoint.Colors)
			}
			st.ZeroTimes()
			out, err := st.JSON()
			if err != nil {
				t.Fatal(err)
			}
			// Every golden document must also satisfy the published schema;
			// drift in either direction fails here before it fails in CI.
			if err := obs.ValidateStats(out); err != nil {
				t.Fatalf("golden stats violate schema: %v", err)
			}
			checkGolden(t, "stats_"+tc.name+".json", string(out))
		})
	}
}

// TestStatsOffByDefault pins the opt-in contract: without WithStats the
// report carries no stats document and the compiled program still serves its
// compile-time snapshot.
func TestStatsOffByDefault(t *testing.T) {
	p, err := CompileOpts(bench.Fig2Program(-1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats != nil {
		t.Fatalf("Report.Stats = %+v without WithStats, want nil", rep.Stats)
	}
	cs := p.Stats()
	if cs == nil || cs.Program.Instrs == 0 {
		t.Fatalf("CompiledProgram.Stats() = %+v, want compile-time snapshot", cs)
	}
}

// TestStatsParallelismByteIdentical is the stats contract stated in the
// strongest available form: on the paper's fully-associative cache, the
// rendered JSON document (wall clock zeroed) is byte-for-byte identical
// across repeated runs, each compiling the program afresh.
func TestStatsParallelismByteIdentical(t *testing.T) {
	render := func() string {
		t.Helper()
		opts := []Option{WithStats(true)}
		p, err := CompileOpts(bench.Fig2Program(-1), opts...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := AnalyzeContext(context.Background(), p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		rep.Stats.ZeroTimes()
		out, err := rep.Stats.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	want := render()
	for run := 1; run < 4; run++ {
		if got := render(); got != want {
			t.Fatalf("run %d: stats document differs from the first run:\n got %s\nwant %s", run, got, want)
		}
	}
}

// mustKernel returns the raw source of a WCET-kind corpus kernel.
func mustKernel(t *testing.T, name string) string {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("kernel %q not in corpus", name)
	}
	return b.Code
}
