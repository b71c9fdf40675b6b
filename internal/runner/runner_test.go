package runner

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/core"
	"specabsint/internal/obs"
	"specabsint/internal/sidechannel"
)

// TestRunAllOrderAndCompleteness checks that a batch larger than the worker
// count returns exactly one result per job, in job order, regardless of how
// the workers interleave.
func TestRunAllOrderAndCompleteness(t *testing.T) {
	p := New(4)
	const n = 32
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Name:   fmt.Sprintf("job%d", i),
			Source: bench.Fig2Program(i % 8), // 8 distinct programs
			Opts:   core.DefaultOptions(),
		}
	}
	results := p.RunAll(context.Background(), jobs)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Index != i || r.Name != jobs[i].Name {
			t.Errorf("result %d: got index %d name %q", i, r.Index, r.Name)
		}
		if r.Err != nil {
			t.Errorf("job %s: %v", r.Name, r.Err)
		}
		if r.Analysis == nil || r.Analysis.AccessCount() == 0 {
			t.Errorf("job %s: empty analysis", r.Name)
		}
	}
	hits, misses := p.CacheStats()
	if misses != 8 || hits != n-8 {
		t.Errorf("cache stats: %d hits %d misses, want %d hits 8 misses", hits, misses, n-8)
	}
}

// TestPanicIsolation checks that a panicking job surfaces as its own
// *PanicError without disturbing the rest of the batch.
func TestPanicIsolation(t *testing.T) {
	p := New(2)
	ok := func(context.Context) (*core.Result, *sidechannel.Report, error) {
		return &core.Result{}, nil, nil
	}
	jobs := []Job{
		{Name: "good0", run: ok},
		{Name: "boom", run: func(context.Context) (*core.Result, *sidechannel.Report, error) {
			panic("deliberate crash")
		}},
		{Name: "good1", run: ok},
	}
	results := p.RunAll(context.Background(), jobs)
	var perr *PanicError
	if !errors.As(results[1].Err, &perr) {
		t.Fatalf("job 1: got %v, want *PanicError", results[1].Err)
	}
	if perr.Job != "boom" || perr.Value != "deliberate crash" || len(perr.Stack) == 0 {
		t.Errorf("panic error: %+v", perr)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("job %d affected by sibling panic: %v", i, results[i].Err)
		}
	}
}

// TestCancelBlockedBatch cancels a batch whose running jobs block on the
// context: the blocked jobs must return the context error and jobs never
// started must be reported as canceled too, so RunAll stays complete.
func TestCancelBlockedBatch(t *testing.T) {
	p := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	running := make(chan struct{}, 2)
	block := func(ctx context.Context) (*core.Result, *sidechannel.Report, error) {
		running <- struct{}{}
		<-ctx.Done()
		return nil, nil, ctx.Err()
	}
	jobs := []Job{
		{Name: "blocked0", run: block},
		{Name: "blocked1", run: block},
		{Name: "never-started", run: block},
	}
	var (
		wg      sync.WaitGroup
		results []Result
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results = p.RunAll(ctx, jobs)
	}()
	<-running // both workers are now parked in a job
	<-running
	cancel()
	wg.Wait()
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %s: got %v, want context.Canceled", r.Name, r.Err)
		}
	}
}

// pollCancelCtx is a context that reports itself canceled after a fixed
// number of Done() polls. The fixpoint engine polls every ctxCheckInterval
// WTO-sweep steps and every ctxCheckInterval lane-drain pops, so this cancels
// an analysis mid-fixpoint deterministically — no timing involved.
type pollCancelCtx struct {
	context.Context
	mu        sync.Mutex
	remaining int
	done      chan struct{}
}

func newPollCancelCtx(polls int) *pollCancelCtx {
	return &pollCancelCtx{Context: context.Background(), remaining: polls, done: make(chan struct{})}
}

func (c *pollCancelCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.remaining--
	if c.remaining <= 0 {
		select {
		case <-c.done:
		default:
			close(c.done)
		}
	}
	return c.done
}

func (c *pollCancelCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestCancelMidFixpoint runs a real analysis under a context that cancels on
// its third poll and checks the fixpoint loop abandons the analysis with the
// context error. The fixpoint polls once every ctxCheckInterval WTO-sweep
// steps and once every ctxCheckInterval lane-drain pops; an uncanceled run of
// the same job must poll more than three times, so the cancellation lands
// mid-fixpoint rather than after it.
func TestCancelMidFixpoint(t *testing.T) {
	b, ok := bench.ByName("adpcm")
	if !ok {
		t.Fatal("adpcm benchmark missing")
	}
	jobs := []Job{{
		Name:      b.Name,
		Source:    b.Code,
		MaxUnroll: 4096, // 1,924 sweep steps and about 50 context polls
		Opts:      core.DefaultOptions(),
	}}
	full := newPollCancelCtx(math.MaxInt)
	if r := New(1).RunAll(full, jobs)[0]; r.Err != nil {
		t.Fatalf("uncanceled run: %v", r.Err)
	}
	full.mu.Lock()
	polls := math.MaxInt - full.remaining
	full.mu.Unlock()
	if polls <= 3 {
		t.Fatalf("an uncanceled run polls %d times: canceling on the third poll is not mid-fixpoint", polls)
	}
	results := New(1).RunAll(newPollCancelCtx(3), jobs)
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", results[0].Err)
	}
	if results[0].Analysis != nil {
		t.Error("canceled job carries a partial analysis result")
	}
}

// TestBatchMatchesSerial is the golden equivalence check: every WCET
// benchmark analyzed through the pool must report exactly the per-access
// classifications and summary counts of the serial path.
func TestBatchMatchesSerial(t *testing.T) {
	benches := bench.WCETBenchmarks()
	opts := core.DefaultOptions()
	jobs := make([]Job, len(benches))
	for i, b := range benches {
		jobs[i] = Job{Name: b.Name, Source: b.Code, Opts: opts, Mode: ModeSideChannel}
	}
	results := New(0).RunAll(context.Background(), jobs)
	for i, b := range benches {
		r := results[i]
		if r.Err != nil {
			t.Fatalf("%s: %v", b.Name, r.Err)
		}
		prog, err := bench.Compile(b.Code, 0)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		want, err := sidechannel.Analyze(prog, opts)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		got := r.Leaks
		if got.Analysis.MissCount() != want.Analysis.MissCount() ||
			got.Analysis.SpecMissCount() != want.Analysis.SpecMissCount() ||
			got.Analysis.Iterations != want.Analysis.Iterations {
			t.Errorf("%s: batch summary diverges from serial", b.Name)
		}
		if !reflect.DeepEqual(got.Analysis.Access, want.Analysis.Access) ||
			!reflect.DeepEqual(got.Analysis.SpecAccess, want.Analysis.SpecAccess) {
			t.Errorf("%s: per-access classifications diverge from serial", b.Name)
		}
		if !reflect.DeepEqual(got.Leaks, want.Leaks) ||
			!reflect.DeepEqual(got.SpectreLeaks, want.SpectreLeaks) {
			t.Errorf("%s: leak reports diverge from serial", b.Name)
		}
	}
}

// TestCompileErrorPerJob checks a bad-source job fails alone: its error is a
// parse error, and sibling jobs complete.
func TestCompileErrorPerJob(t *testing.T) {
	p := New(2)
	jobs := []Job{
		{Name: "bad", Source: "int main( {", Opts: core.DefaultOptions()},
		{Name: "good", Source: bench.Fig2Program(0), Opts: core.DefaultOptions()},
	}
	results := p.RunAll(context.Background(), jobs)
	if results[0].Err == nil {
		t.Error("bad job: expected a compile error")
	}
	if results[1].Err != nil {
		t.Errorf("good job: %v", results[1].Err)
	}
}

// TestPoolReuseAcrossRuns checks the program cache persists across Run calls
// on the same pool: a second identical sweep compiles nothing.
func TestPoolReuseAcrossRuns(t *testing.T) {
	p := New(2)
	jobs := []Job{{Name: "fig2", Source: bench.Fig2Program(0), Opts: core.DefaultOptions()}}
	if r := p.RunAll(context.Background(), jobs); r[0].Err != nil {
		t.Fatal(r[0].Err)
	}
	_, missesBefore := p.CacheStats()
	if r := p.RunAll(context.Background(), jobs); r[0].Err != nil {
		t.Fatal(r[0].Err)
	}
	_, missesAfter := p.CacheStats()
	if missesAfter != missesBefore {
		t.Errorf("second run recompiled: misses %d -> %d", missesBefore, missesAfter)
	}
}

// TestPoolSnapshotCounters drives the pool through success, panic, blocking
// and cancellation, checking the expvar-style gauges at each stage.
func TestPoolSnapshotCounters(t *testing.T) {
	p := New(2)
	if s := p.Snapshot(); s != (obs.PoolSnapshot{Workers: 2}) {
		t.Fatalf("fresh pool snapshot = %+v", s)
	}
	ok := func(context.Context) (*core.Result, *sidechannel.Report, error) {
		return &core.Result{}, nil, nil
	}
	p.RunAll(context.Background(), []Job{
		{Name: "a", run: ok},
		{Name: "boom", run: func(context.Context) (*core.Result, *sidechannel.Report, error) {
			panic("deliberate crash")
		}},
		{Name: "b", run: ok},
	})
	s := p.Snapshot()
	want := obs.PoolSnapshot{Workers: 2, Submitted: 3, Completed: 3, Panics: 1}
	if s != want {
		t.Fatalf("after batch: %+v, want %+v", s, want)
	}

	// A canceled batch: two jobs park on the context, a third never starts
	// (or starts only to observe the canceled context — both count as
	// canceled completions, so the totals are deterministic either way).
	ctx, cancel := context.WithCancel(context.Background())
	running := make(chan struct{}, 2)
	block := func(ctx context.Context) (*core.Result, *sidechannel.Report, error) {
		running <- struct{}{}
		<-ctx.Done()
		return nil, nil, ctx.Err()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.RunAll(ctx, []Job{
			{Name: "b0", run: block},
			{Name: "b1", run: block},
			{Name: "b2", run: block},
		})
	}()
	<-running // both workers are parked inside a job
	<-running
	if s := p.Snapshot(); s.Running != 2 || s.QueueDepth != 1 {
		t.Fatalf("mid-batch: running %d queue %d, want 2 and 1", s.Running, s.QueueDepth)
	}
	cancel()
	<-done
	s = p.Snapshot()
	want = obs.PoolSnapshot{Workers: 2, Submitted: 6, Completed: 6, Panics: 1, Canceled: 3}
	if s != want {
		t.Fatalf("after cancel: %+v, want %+v", s, want)
	}
}

// TestPublishExpvar checks the pool registers on the process expvar page and
// renders its snapshot as JSON.
func TestPublishExpvar(t *testing.T) {
	p := New(1)
	p.PublishExpvar("specabsint-runner-test-pool")
	v := expvar.Get("specabsint-runner-test-pool")
	if v == nil {
		t.Fatal("PublishExpvar did not register the variable")
	}
	var snap obs.PoolSnapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("published value is not JSON: %v\n%s", err, v.String())
	}
	if snap.Workers != 1 {
		t.Fatalf("published snapshot %+v, want Workers=1", snap)
	}
}
