package core

import (
	"runtime"
	"testing"
)

// TestSusanAllocationBound guards the engine's memory against growing with
// blocks × colors again: susan, the corpus's largest kernel (2,133 blocks,
// 2,030 colors), must allocate less than 64 MB in one analysis at the
// paper's defaults.
func TestSusanAllocationBound(t *testing.T) {
	if raceDetectorOn {
		t.Skip("the race detector changes allocation behaviour")
	}
	prog := compileBench(t, "susan")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Analyze(prog, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limitMB = 64
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	if mb >= limitMB {
		t.Fatalf("susan analysis allocated %.1f MB, want < %d MB", mb, limitMB)
	}
	t.Logf("susan analysis allocated %.1f MB", mb)
}
