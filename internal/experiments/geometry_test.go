package experiments

import (
	"context"
	"testing"
)

func TestGeometrySweepShape(t *testing.T) {
	rows, err := GeometrySweep(context.Background(), "g72", []int{4, 16, 64, 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	gapSomewhere := false
	for i, r := range rows {
		if r.SpecMiss < r.NonSpecMiss-2 {
			t.Errorf("lines=%d: spec %d far below non-spec %d", r.Lines, r.SpecMiss, r.NonSpecMiss)
		}
		if r.SpecMiss > r.NonSpecMiss {
			gapSomewhere = true
		}
		// Bigger caches never create more baseline misses.
		if i > 0 && r.NonSpecMiss > rows[i-1].NonSpecMiss {
			t.Errorf("non-spec misses grew from %d to %d when the cache grew",
				rows[i-1].NonSpecMiss, r.NonSpecMiss)
		}
	}
	if !gapSomewhere {
		t.Error("no cache size shows a speculation gap")
	}
}

func TestGeometrySweepUnknownBench(t *testing.T) {
	if _, err := GeometrySweep(context.Background(), "nope", []int{8}, nil); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestICacheTableShape(t *testing.T) {
	if raceDetectorOn {
		t.Skip("full-corpus i-cache sweep is too slow under the race detector; raced via internal/runner")
	}
	rows, err := ICacheTable(context.Background(), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 10", len(rows))
	}
	addsSomewhere := false
	for _, r := range rows {
		if r.Fetches <= 0 {
			t.Errorf("%s: no fetches", r.Name)
		}
		if r.SpecMiss < r.NonSpecMiss-2 {
			t.Errorf("%s: spec fetch misses %d far below non-spec %d",
				r.Name, r.SpecMiss, r.NonSpecMiss)
		}
		if r.SpecMiss > r.NonSpecMiss {
			addsSomewhere = true
		}
	}
	if !addsSomewhere {
		t.Error("speculation never adds instruction-cache misses")
	}
}
