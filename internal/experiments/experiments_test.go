package experiments

import (
	"context"
	"strings"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/layout"
)

func TestTable3And4Statistics(t *testing.T) {
	t3 := Table3()
	if len(t3) != 10 {
		t.Fatalf("Table 3 has %d rows, want 10", len(t3))
	}
	t4 := Table4()
	if len(t4) != 10 {
		t.Fatalf("Table 4 has %d rows, want 10", len(t4))
	}
	for _, r := range append(t3, t4...) {
		if r.LoC <= 0 || r.Origin == "" {
			t.Errorf("row %s incomplete: %+v", r.Name, r)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	rows, err := Table5(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("Table 5 has %d rows, want 10", len(rows))
	}
	moreMisses := 0
	specTotal, baseTotal := 0, 0
	for _, r := range rows {
		// The paper's headline: the speculative analysis reports more
		// potential misses. Per-row the counts may dip by a hair below the
		// baseline — widening points depend on the growth sequence, and the
		// two analyses iterate differently — so allow a tiny slack here;
		// actual soundness is asserted against the concrete machine in
		// internal/core's property tests.
		if r.SpecMiss < r.NonSpecMiss-2 {
			t.Errorf("%s: spec misses %d far below non-spec %d",
				r.Name, r.SpecMiss, r.NonSpecMiss)
		}
		if r.SpecMiss > r.NonSpecMiss {
			moreMisses++
		}
		specTotal += r.SpecMiss
		baseTotal += r.NonSpecMiss
		if r.Branches <= 0 {
			t.Errorf("%s: no branches recorded", r.Name)
		}
		if r.Iterations <= 0 {
			t.Errorf("%s: no iterations recorded", r.Name)
		}
	}
	// The paper's Table 5 has equal rows too (jcphuff 12=12, vga 4=4);
	// require a clear majority of strictly-more rows and a higher total.
	if moreMisses < 5 {
		t.Errorf("speculation adds misses on only %d/10 benchmarks; expected a majority", moreMisses)
	}
	if specTotal <= baseTotal {
		t.Errorf("total spec misses %d not above baseline %d", specTotal, baseTotal)
	}
}

func TestTable6Shape(t *testing.T) {
	if raceDetectorOn {
		t.Skip("full-corpus strategy sweep is too slow under the race detector; raced via internal/runner")
	}
	rows, err := Table6(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("Table 6 has %d rows, want 10", len(rows))
	}
	jitNotWorse := 0
	for _, r := range rows {
		// Just-in-time merging is at least as precise as merge-at-rollback
		// on most benchmarks (the paper reports occasional exceptions in
		// #SpMiss but JIT winning overall).
		if r.JITMiss <= r.RollbackMiss {
			jitNotWorse++
		}
	}
	if jitNotWorse < 7 {
		t.Errorf("JIT at least as precise on only %d/10 benchmarks", jitNotWorse)
	}
}

// TestTable7PaperShape is the headline side-channel reproduction: the same
// five kernels as the paper leak under the speculative analysis only, and
// des leaks even with a zero-size client buffer.
func TestTable7PaperShape(t *testing.T) {
	if raceDetectorOn {
		t.Skip("crypto corpus sweep is too slow under the race detector; raced via internal/runner")
	}
	if testing.Short() {
		t.Skip("table 7 sweep is expensive")
	}
	rows, err := Table7(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantLeak := map[string]bool{
		"hash": true, "encoder": true, "chacha20": true, "ocb": true,
		"des": true,
		"aes": false, "str2key": false, "seed": false, "camellia": false,
		"salsa": false,
	}
	for _, r := range rows {
		if r.NonSpecLeak {
			t.Errorf("%s: non-speculative analysis reported a leak (paper: never)", r.Name)
		}
		if r.SpecLeak != wantLeak[r.Name] {
			t.Errorf("%s: speculative leak = %v, want %v (buffer %d)",
				r.Name, r.SpecLeak, wantLeak[r.Name], r.BufferBytes)
		}
		if r.Name == "des" && r.SpecLeak && r.BufferBytes != 0 {
			t.Errorf("des should leak at buffer size 0, got %d", r.BufferBytes)
		}
	}
}

func TestFig2Experiment(t *testing.T) {
	res, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if !res.NonSpecAlwaysHit {
		t.Error("baseline should prove ph[k] always-hit")
	}
	if res.SpecAlwaysHit {
		t.Error("speculative analysis must not prove ph[k] always-hit")
	}
	// Fig. 3 concrete counts.
	if res.NonSpecMisses != 512 || res.NonSpecHits != 1 {
		t.Errorf("non-spec trace: %d misses %d hits, want 512/1",
			res.NonSpecMisses, res.NonSpecHits)
	}
	if res.SpecMisses != 513 || res.SpecSpMisses != 1 {
		t.Errorf("spec trace: %d misses %d spec-misses, want 513/1",
			res.SpecMisses, res.SpecSpMisses)
	}
}

func TestDepthAblation(t *testing.T) {
	if raceDetectorOn {
		t.Skip("full-corpus depth ablation is too slow under the race detector; raced via internal/runner")
	}
	rows, err := DepthAblation(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 10", len(rows))
	}
	// §6.2: bounding the depth removes speculative behaviours, so the
	// bounded analysis tends to report fewer misses. (It is a tendency, not
	// a theorem: widening points are iteration-order dependent, so isolated
	// benchmarks can deviate — the paper also reports it as an accuracy
	// improvement in aggregate.)
	notWorse, boundedTotal, unboundedTotal := 0, 0, 0
	for _, r := range rows {
		if r.BoundedMiss <= r.UnboundedMiss {
			notWorse++
		}
		boundedTotal += r.BoundedMiss
		unboundedTotal += r.UnboundedMiss
	}
	if notWorse < 7 {
		t.Errorf("bounded analysis no worse on only %d/10 benchmarks", notWorse)
	}
	if boundedTotal > unboundedTotal+unboundedTotal/20 {
		t.Errorf("bounded total misses %d exceed unbounded %d by more than 5%%",
			boundedTotal, unboundedTotal)
	}
}

func TestFindLeakThresholdOnFig2LikeKernel(t *testing.T) {
	b, ok := bench.ByName("hash")
	if !ok {
		t.Fatal("hash missing")
	}
	size, found, err := FindLeakThreshold(context.Background(), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("hash must have a speculation-only leak window")
	}
	if size <= 0 || size > layout.PaperConfig().SizeBytes() {
		t.Errorf("threshold %d out of range", size)
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]string{"name", "n"}, [][]string{{"a", "1"}, {"bench", "22"}})
	if !strings.Contains(out, "name") || !strings.Contains(out, "bench") {
		t.Errorf("bad table:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}
