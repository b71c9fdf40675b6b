package specabsint

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"specabsint/internal/bench"
)

// TestServiceCacheHit checks the Service's report cache: identical resubmits
// are hits with identical reports, different options miss.
func TestServiceCacheHit(t *testing.T) {
	svc := NewService(ServiceConfig{Workers: 2})
	cold := svc.Analyze(context.Background(), "api", apiProgram, tightConfig().Options()...)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	if cold.CacheHit {
		t.Fatal("cold run reported a cache hit")
	}
	warm := svc.Analyze(context.Background(), "api", apiProgram, tightConfig().Options()...)
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if !warm.CacheHit {
		t.Fatal("identical resubmit missed the report cache")
	}
	if !reflect.DeepEqual(cold.Report, warm.Report) {
		t.Error("cached report differs from the cold run")
	}

	other := svc.Analyze(context.Background(), "api", apiProgram, append(tightConfig().Options(), WithSpeculation(false))...)
	if other.Err != nil {
		t.Fatal(other.Err)
	}
	if other.CacheHit {
		t.Error("different options hit the cache")
	}

	snap := svc.Snapshot()
	if snap.ReportCacheHits != 1 || snap.ReportCacheMisses != 2 {
		t.Errorf("report cache: %d hits %d misses, want 1/2", snap.ReportCacheHits, snap.ReportCacheMisses)
	}
}

// TestServiceMatchesAnalyzeBatch checks the Service produces the same
// reports as the one-shot AnalyzeBatch path.
func TestServiceMatchesAnalyzeBatch(t *testing.T) {
	jobs := make([]BatchJob, 6)
	for i := range jobs {
		jobs[i] = BatchJob{Name: fmt.Sprintf("j%d", i), Source: apiProgram}
		if i%2 == 1 {
			jobs[i].Options = []Option{WithSpeculation(false)}
		}
	}
	opts := tightConfig().Options()

	svc := NewService(ServiceConfig{Workers: 2})
	viaService, err := svc.AnalyzeBatch(context.Background(), jobs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	viaBatch, err := AnalyzeBatch(context.Background(), jobs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !reflect.DeepEqual(viaService[i].Report, viaBatch[i].Report) {
			t.Errorf("job %d: service and batch reports differ", i)
		}
	}
}

// TestServiceStream checks every job index arrives exactly once on the
// stream and that repeated jobs are cache hits.
func TestServiceStream(t *testing.T) {
	svc := NewService(ServiceConfig{Workers: 2})
	jobs := make([]BatchJob, 8)
	for i := range jobs {
		jobs[i] = BatchJob{Name: "same", Source: apiProgram}
	}
	seen := map[int]bool{}
	hits := 0
	for r := range svc.Stream(context.Background(), jobs, tightConfig().Options()...) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if seen[r.Index] {
			t.Errorf("index %d delivered twice", r.Index)
		}
		seen[r.Index] = true
		if r.CacheHit {
			hits++
		}
	}
	if len(seen) != len(jobs) {
		t.Errorf("got %d results, want %d", len(seen), len(jobs))
	}
	// All jobs are identical; apart from races between concurrent cold
	// misses, later ones are served from the cache.
	if hits == 0 {
		t.Error("no cache hits across identical streamed jobs")
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestServiceReportCacheKey checks what a Service's report-cache entry is
// keyed by: every analysis and lowering option and WithStats miss, while
// WithMitigateVerify, which no analysis reads, still hits.
func TestServiceReportCacheKey(t *testing.T) {
	svc := NewService(ServiceConfig{Workers: 1})
	analyze := func(extra ...Option) BatchResult {
		t.Helper()
		r := svc.Analyze(context.Background(), "api", apiProgram, append(tightOptions(), extra...)...)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		return r
	}
	if analyze().CacheHit {
		t.Fatal("cold run reported a cache hit")
	}
	variants := []struct {
		name string
		opt  Option
	}{
		{"cache", WithCache(CacheConfig{LineSize: 64, NumSets: 1, Assoc: 20})},
		{"speculation", WithSpeculation(false)},
		{"depths", WithDepths(30, 5)},
		{"dynamic depth bounding", WithDynamicDepthBounding(false)},
		{"strategy", WithStrategy(PerRollbackBlock)},
		{"refined join", WithRefinedJoin(false)},
		{"max unroll", WithMaxUnroll(3)},
		{"passes", WithPasses(false)},
		{"stats", WithStats(true)},
	}
	for _, v := range variants {
		if analyze(v.opt).CacheHit {
			t.Errorf("%s: hit the entry of a different configuration", v.name)
		}
	}
	if !analyze(WithMitigateVerify(false)).CacheHit {
		t.Error("a job differing only in WithMitigateVerify missed the report cache")
	}
	snap := svc.Snapshot()
	if want := int64(1 + len(variants)); snap.ReportCacheHits != 1 || snap.ReportCacheMisses != want {
		t.Errorf("report cache: %d hits %d misses, want 1/%d", snap.ReportCacheHits, snap.ReportCacheMisses, want)
	}
}

// TestServiceHitStats checks a hit serves the miss run's stats document,
// in a copy of its own: zeroing one result's times leaves the next hit's
// intact.
func TestServiceHitStats(t *testing.T) {
	svc := NewService(ServiceConfig{Workers: 1})
	opts := append(tightOptions(), WithStats(true))
	statsJSON := func(s *Stats) string {
		t.Helper()
		out, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	cold := svc.Analyze(context.Background(), "api", apiProgram, opts...)
	if cold.Err != nil || cold.CacheHit || cold.Report.Stats == nil {
		t.Fatalf("cold run: err %v, hit %v, stats %v", cold.Err, cold.CacheHit, cold.Report.Stats)
	}
	coldStats := statsJSON(cold.Report.Stats)
	warm := svc.Analyze(context.Background(), "api", apiProgram, opts...)
	if warm.Err != nil || !warm.CacheHit {
		t.Fatalf("warm run: err %v, hit %v", warm.Err, warm.CacheHit)
	}
	if got := statsJSON(warm.Report.Stats); got != coldStats {
		t.Errorf("hit stats differ from the cold run's:\ncold:\n%s\nwarm:\n%s", coldStats, got)
	}
	if warm.Report.Stats == cold.Report.Stats || warm.Report == cold.Report {
		t.Error("a hit shares the cold run's Report or Stats")
	}
	if !reflect.DeepEqual(cold.Report, warm.Report) {
		t.Error("cached report differs from the cold run")
	}
	cold.Report.Stats.ZeroTimes()
	warm.Report.Stats.ZeroTimes()
	if again := svc.Analyze(context.Background(), "api", apiProgram, opts...); statsJSON(again.Report.Stats) != coldStats {
		t.Error("zeroing served stats changed the cached ones")
	}
}

// TestServiceConcurrentHits checks concurrent hits share one cached report:
// the same access slice, read concurrently, each with stats of its own.
// Under -race it also checks that nothing a hit hands out is written by two
// requests.
func TestServiceConcurrentHits(t *testing.T) {
	svc := NewService(ServiceConfig{Workers: 2})
	opts := append(tightOptions(), WithStats(true))
	cold := svc.Analyze(context.Background(), "api", apiProgram, opts...)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	want := reportJSON(t, cold.Report)
	results := make([]BatchResult, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := svc.Analyze(context.Background(), "api", apiProgram, opts...)
			if r.Err == nil {
				// Encode as a server answering the request would, reading
				// the shared slices, then write to this result's own stats.
				_, r.Err = json.Marshal(r.Report)
				r.Report.Stats.ZeroTimes()
			}
			results[i] = r
		}()
	}
	wg.Wait()
	for i, r := range results {
		if r.Err != nil || !r.CacheHit {
			t.Fatalf("hit %d: err %v, hit %v", i, r.Err, r.CacheHit)
		}
		if &r.Report.Accesses[0] != &cold.Report.Accesses[0] {
			t.Errorf("hit %d does not share the cached access list", i)
		}
	}
	if got := reportJSON(t, cold.Report); got != want {
		t.Error("concurrent hits changed the cached report")
	}
}

// TestServiceStreamAbandoned checks that a caller who stops reading a
// stream and cancels it strands no goroutine: every job still yields its
// result into the stream's channel, and every goroutine behind it exits.
func TestServiceStreamAbandoned(t *testing.T) {
	svc := NewService(ServiceConfig{Workers: 1})
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		jobs := make([]BatchJob, 4)
		for j := range jobs {
			jobs[j] = BatchJob{Name: fmt.Sprintf("j%d", j), Source: apiProgram, Options: []Option{WithDepths(10+i*len(jobs)+j, 5)}}
		}
		stream := svc.Stream(ctx, jobs, tightOptions()...)
		<-stream
		cancel()
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after abandoning five streams, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestServiceHitAllocations bounds what a report-cache hit allocates on
// susan, the corpus's largest kernel: a hit hands out the cached report,
// so it must not rebuild it (over 2.5 MB per hit) or copy its accesses.
func TestServiceHitAllocations(t *testing.T) {
	if raceDetectorOn {
		t.Skip("the race detector changes allocation behaviour")
	}
	b, ok := bench.ByName("susan")
	if !ok {
		t.Fatal("susan missing from the corpus")
	}
	svc := NewService(ServiceConfig{Workers: 1})
	if r := svc.Analyze(context.Background(), "susan", b.Code); r.Err != nil || r.CacheHit {
		t.Fatalf("cold run: err %v, hit %v", r.Err, r.CacheHit)
	}
	const hits = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		if r := svc.Analyze(context.Background(), "susan", b.Code); r.Err != nil || !r.CacheHit {
			t.Fatalf("hit %d: err %v, hit %v", i, r.Err, r.CacheHit)
		}
	}
	runtime.ReadMemStats(&after)
	const limitKB = 64
	kb := float64(after.TotalAlloc-before.TotalAlloc) / hits / 1024
	if kb >= limitKB {
		t.Fatalf("a susan report-cache hit allocates %.1f KB, want < %d KB", kb, limitKB)
	}
	t.Logf("a susan report-cache hit allocates %.1f KB", kb)
}
