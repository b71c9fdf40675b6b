package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/cache"
	"specabsint/internal/layout"
)

// TestMetricsMatchBenchmarkJSON keeps the metric and workload lists in step
// with the BENCHMARK.json the benchmark is run from.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var doc struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []def) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: code has %s (%s), BENCHMARK.json %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, doc.EndToEnd)
	same("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in code, %d in BENCHMARK.json", len(workloadNames), len(doc.Workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: code has %s, BENCHMARK.json %s", i, workloadNames[i], w.Name)
		}
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced: no
// operation or check may fail, every reported metric must be a declared
// one, every end-to-end metric must be measured, and both runs must print
// the same verdict digest.
func TestSmoke(t *testing.T) {
	specserve := filepath.Join(t.TempDir(), "specserve")
	if out, err := exec.Command("go", "build", "-o", specserve, "specabsint/cmd/specserve").CombinedOutput(); err != nil {
		t.Fatalf("building specserve: %v\n%s", err, out)
	}
	declared := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared[m.name] = true
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := config{seed: 7, seconds: 0.3, limit: 2, rate: 10, specserve: specserve}
			if name == "serve-mix" {
				cfg.seconds = 1
			}
			plain := runWorkload(context.Background(), name, cfg)
			cfg.trace = true
			traced := runWorkload(context.Background(), name, cfg)
			for _, res := range []*result{plain, traced} {
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: %d of %d failed: %v", res == traced, res.Failed, res.Attempted, res.Failures)
				}
				if n := len(res.Samples["setup_s"]); n != setupRepeats {
					t.Errorf("trace=%v: %d set-ups, want %d", res == traced, n, setupRepeats)
				}
				for k := range res.Metrics {
					if !declared[k] {
						t.Errorf("undeclared metric %q", k)
					}
				}
			}
			for _, m := range endToEnd {
				if plain.Metrics[m.name] <= 0 {
					t.Errorf("%s = %v, want a measured value", m.name, plain.Metrics[m.name])
				}
			}
			if len(plain.Samples["calibration_ms"]) == 0 {
				t.Error("the untraced run took no calibration sample")
			}
			if plain.Digest == "" || plain.Digest != traced.Digest {
				t.Errorf("digest %q untraced, %q traced", plain.Digest, traced.Digest)
			}
			if traced.Layers == "" {
				t.Error("the traced run printed no per-layer table")
			}
		})
	}
}

// TestSoundnessGateRejectsPlantedVerdict plants a wrong verdict, an
// always-miss access relabeled always-hit, and expects the gate to fail.
func TestSoundnessGateRejectsPlantedVerdict(t *testing.T) {
	c := layout.PaperConfig()
	a, err := analyzeLayers(context.Background(), bench.Fig2Program(-1), analysisOptions(c), nil, "fig2", 0, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSound(a.prog, a.verdicts, c); err != nil {
		t.Fatalf("the true verdicts fail the gate: %v", err)
	}
	planted := verdicts{arch: map[int]cache.Classification{}, spec: a.verdicts.spec}
	flipped := false
	for id, cls := range a.verdicts.arch {
		if cls == cache.AlwaysMiss && !flipped {
			cls, flipped = cache.AlwaysHit, true
		}
		planted.arch[id] = cls
	}
	if !flipped {
		t.Fatal("fig2 has no always-miss access to relabel")
	}
	if err := checkSound(a.prog, planted, c); err == nil {
		t.Fatal("the gate accepted a planted always-hit verdict for an access that misses")
	}
}
