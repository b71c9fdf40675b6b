package runner

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/obs"
	"specabsint/internal/sidechannel"
)

// cachedJob builds one report-cacheable side-channel job over src, keyed by
// its options.
func cachedJob(name, src string, opts core.Options) Job[*sidechannel.Report] {
	return Job[*sidechannel.Report]{Name: name, Source: src, Analyze: Bind(sidechannel.AnalyzeContext, opts), Key: opts}
}

// TestReportCacheHit checks that resubmitting an identical job is served
// from the report cache with the stored value and CacheHit set.
func TestReportCacheHit(t *testing.T) {
	p := New(2)
	src := bench.Fig2Program(-1)
	job := cachedJob("fig2", src, core.DefaultOptions())

	cold := RunAll(context.Background(), p, []Job[*sidechannel.Report]{job})[0]
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	if cold.CacheHit {
		t.Fatal("cold run reported CacheHit")
	}
	warm := RunAll(context.Background(), p, []Job[*sidechannel.Report]{job})[0]
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if !warm.CacheHit {
		t.Fatal("identical resubmit missed the report cache")
	}
	if warm.Value != cold.Value {
		t.Error("cached run did not return the stored value")
	}
	snap := p.Snapshot()
	if hits, misses := snap.ReportCacheHits, snap.ReportCacheMisses; hits != 1 || misses != 1 {
		t.Errorf("report cache stats: %d hits %d misses, want 1/1", hits, misses)
	}
}

// TestReportCacheKey checks what a report-cache entry is keyed by: the
// job's Key and every lowering option, on top of the source.
func TestReportCacheKey(t *testing.T) {
	p := New(1)
	analyses := 0
	job := func(key any, maxUnroll int, passes bool) Job[int] {
		return Job[int]{
			Name: fmt.Sprint(key), Source: bench.Fig2Program(-1), MaxUnroll: maxUnroll, Passes: passes, Key: key,
			Analyze: func(context.Context, *ir.Program, *obs.Stats) (int, error) {
				analyses++
				return analyses, nil
			},
		}
	}
	for i, c := range []struct {
		job  Job[int]
		hit  bool
		want int
	}{
		{job("a", 0, false), false, 1},
		{job("a", 0, false), true, 1},
		{job("b", 0, false), false, 2},
		{job("a", 8, false), false, 3},
		{job("a", 0, true), false, 4},
		{job("b", 0, false), true, 2},
	} {
		r := RunAll(context.Background(), p, []Job[int]{c.job})[0]
		if r.Err != nil || r.CacheHit != c.hit || r.Value != c.want {
			t.Errorf("job %d: value %d, hit %v, err %v; want value %d, hit %v", i, r.Value, r.CacheHit, r.Err, c.want, c.hit)
		}
	}
}

// TestReportCacheBatchTwins checks that identical jobs of one batch reuse
// the first one's value: a job that waited for a worker slot looks the
// report tier up again before it compiles, and counts one hit or miss.
func TestReportCacheBatchTwins(t *testing.T) {
	p := New(1)
	var analyses atomic.Int64
	jobs := make([]Job[int64], 6)
	for i := range jobs {
		jobs[i] = Job[int64]{Name: "twin", Source: bench.Fig2Program(-1), Key: "k",
			Analyze: func(context.Context, *ir.Program, *obs.Stats) (int64, error) {
				return analyses.Add(1), nil
			}}
	}
	for i, r := range RunAll(context.Background(), p, jobs) {
		if r.Err != nil || r.Value != 1 {
			t.Errorf("job %d: value %d, err %v; want the first analysis's value 1", i, r.Value, r.Err)
		}
	}
	if n := analyses.Load(); n != 1 {
		t.Errorf("%d analyses ran for %d identical jobs, want 1", n, len(jobs))
	}
	if snap := p.Snapshot(); snap.ReportCacheHits != 5 || snap.ReportCacheMisses != 1 {
		t.Errorf("report cache stats: %d hits %d misses, want 5/1", snap.ReportCacheHits, snap.ReportCacheMisses)
	}
}

// TestReportCacheUncachedJobs checks that jobs without a Key never touch
// the report tier.
func TestReportCacheUncachedJobs(t *testing.T) {
	p := New(1)
	job := cachedJob("plain", bench.Fig2Program(-1), core.DefaultOptions())
	job.Key = nil
	for i := 0; i < 2; i++ {
		if r := RunAll(context.Background(), p, []Job[*sidechannel.Report]{job})[0]; r.Err != nil || r.CacheHit {
			t.Fatalf("run %d: err=%v cacheHit=%v", i, r.Err, r.CacheHit)
		}
	}
	snap := p.Snapshot()
	if hits, misses := snap.ReportCacheHits, snap.ReportCacheMisses; hits != 0 || misses != 0 {
		t.Errorf("uncached jobs touched the report tier: %d hits %d misses", hits, misses)
	}
}

// TestReportCacheEviction checks the LRU bound: with room for one entry, two
// distinct programs evict each other and re-running the first misses.
func TestReportCacheEviction(t *testing.T) {
	p := New(1)
	p.SetCacheBounds(0, 1)
	a := cachedJob("a", bench.Fig2Program(1), core.DefaultOptions())
	b := cachedJob("b", bench.Fig2Program(2), core.DefaultOptions())

	RunAll(context.Background(), p, []Job[*sidechannel.Report]{a}) // miss, cached
	RunAll(context.Background(), p, []Job[*sidechannel.Report]{b}) // miss, evicts a
	r := RunAll(context.Background(), p, []Job[*sidechannel.Report]{a})[0]
	if r.CacheHit {
		t.Error("evicted entry served as a hit")
	}
	snap := p.Snapshot()
	if hits, misses := snap.ReportCacheHits, snap.ReportCacheMisses; hits != 0 || misses != 3 {
		t.Errorf("report cache stats: %d hits %d misses, want 0/3", hits, misses)
	}
	if snap.ReportCacheEvictions < 2 {
		t.Errorf("evictions = %d, want >= 2", snap.ReportCacheEvictions)
	}
	if snap.ReportCacheSize != 1 {
		t.Errorf("report cache size = %d, want 1", snap.ReportCacheSize)
	}
}

// TestDrain checks that Drain returns once submitted work completes and
// times out cleanly when it cannot.
func TestDrain(t *testing.T) {
	p := New(2)
	jobs := make([]Job[*sidechannel.Report], 8)
	for i := range jobs {
		jobs[i] = cachedJob(fmt.Sprintf("j%d", i), bench.Fig2Program(i), core.DefaultOptions())
	}
	RunAll(context.Background(), p, jobs)
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("drain after completion: %v", err)
	}
	snap := p.Snapshot()
	if snap.Submitted != snap.Completed {
		t.Errorf("drained pool has %d submitted, %d completed", snap.Submitted, snap.Completed)
	}
}
