package core

import (
	"runtime"
	"testing"
)

// TestSusanAllocationBound guards the engine's memory against growing with
// blocks × colors again, and its object count against lists built per block
// for every analysis (a full-edge CFG, its post-dominator lists, a successor
// list per block): susan, the corpus's largest kernel (2,133 blocks, 2,030
// colors), must allocate less than 64 MB, in fewer than 66,000 objects, in
// one analysis at the paper's defaults.
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
	const limitMB, limitObjects = 64, 66_000
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	objects := after.Mallocs - before.Mallocs
	if mb >= limitMB || objects >= limitObjects {
		t.Fatalf("susan analysis allocated %.1f MB in %d objects, want < %d MB in < %d objects", mb, objects, limitMB, limitObjects)
	}
	t.Logf("susan analysis allocated %.1f MB in %d objects", mb, objects)
}
