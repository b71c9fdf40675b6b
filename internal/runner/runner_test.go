package runner

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specabsint/internal/bench"
	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/obs"
	"specabsint/internal/sidechannel"
)

// analyzeJob is a Source job running the speculative data-cache analysis.
func analyzeJob(name, src string, opts core.Options) Job[*core.Result] {
	return Job[*core.Result]{Name: name, Source: src, Analyze: Bind(core.AnalyzeContext, opts)}
}

// stub is a job whose analysis is f. The pool mechanics under test never
// look at the program, so it is an empty one and nothing compiles.
func stub(name string, f func(ctx context.Context) (int, error)) Job[int] {
	return Job[int]{Name: name, Prog: &ir.Program{}, Analyze: func(ctx context.Context, _ *ir.Program, _ *obs.Stats) (int, error) {
		return f(ctx)
	}}
}

func succeed(context.Context) (int, error) { return 1, nil }

func crash(context.Context) (int, error) { panic("deliberate crash") }

// TestRunAllOrderAndCompleteness checks that a batch larger than the worker
// count returns exactly one result per job, in job order, regardless of how
// the workers interleave.
func TestRunAllOrderAndCompleteness(t *testing.T) {
	p := New(4)
	const n = 32
	jobs := make([]Job[*core.Result], n)
	for i := range jobs {
		// 8 distinct programs.
		jobs[i] = analyzeJob(fmt.Sprintf("job%d", i), bench.Fig2Program(i%8), core.DefaultOptions())
	}
	results := RunAll(context.Background(), p, jobs)
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
		if r.Value == nil || r.Value.AccessCount() == 0 {
			t.Errorf("job %s: empty analysis", r.Name)
		}
	}
	snap := p.Snapshot()
	if hits, misses := snap.CacheHits, snap.CacheMisses; misses != 8 || hits != n-8 {
		t.Errorf("cache stats: %d hits %d misses, want %d hits 8 misses", hits, misses, n-8)
	}
}

// TestPanicIsolation checks that a panicking job surfaces as its own
// *PanicError without disturbing the rest of the batch.
func TestPanicIsolation(t *testing.T) {
	p := New(2)
	jobs := []Job[int]{stub("good0", succeed), stub("boom", crash), stub("good1", succeed)}
	results := RunAll(context.Background(), p, jobs)
	var perr *PanicError
	if !errors.As(results[1].Err, &perr) {
		t.Fatalf("job 1: got %v, want *PanicError", results[1].Err)
	}
	if perr.Job != "boom" || perr.Value != "deliberate crash" || len(perr.Stack) == 0 {
		t.Errorf("panic error: %+v", perr)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Value != 1 {
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
	block := func(ctx context.Context) (int, error) {
		running <- struct{}{}
		<-ctx.Done()
		return 0, ctx.Err()
	}
	jobs := []Job[int]{stub("blocked0", block), stub("blocked1", block), stub("never-started", block)}
	var (
		wg      sync.WaitGroup
		results []Result[int]
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results = RunAll(ctx, p, jobs)
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

// TestRunYieldsEveryJob checks that Run delivers one result per job even
// when ctx is canceled before any job starts: each carries the context
// error, and the channel closes after the last.
func TestRunYieldsEveryJob(t *testing.T) {
	p := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job[int]{stub("a", succeed), stub("b", succeed), stub("c", succeed)}
	seen := map[int]bool{}
	for r := range Run(ctx, p, jobs) {
		if seen[r.Index] {
			t.Errorf("job %d delivered twice", r.Index)
		}
		seen[r.Index] = true
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %s: got %v, want context.Canceled", r.Name, r.Err)
		}
	}
	if len(seen) != len(jobs) {
		t.Errorf("got %d results, want %d", len(seen), len(jobs))
	}
	if s := p.Snapshot(); s.Submitted != 3 || s.Completed != 3 || s.Canceled != 3 {
		t.Errorf("snapshot %+v, want 3 submitted, completed and canceled", s)
	}
	if _, open := <-Run(ctx, p, []Job[int](nil)); open {
		t.Error("an empty batch's channel is not closed")
	}
}

// TestRunAbandoned checks that a caller that stops reading Run's channel
// strands no goroutine: every job finishes and its goroutine exits.
func TestRunAbandoned(t *testing.T) {
	p := New(2)
	before := runtime.NumGoroutine()
	jobs := make([]Job[int], 8)
	for i := range jobs {
		jobs[i] = stub(fmt.Sprintf("j%d", i), succeed)
	}
	Run(context.Background(), p, jobs)
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after abandoning a batch, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
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
	job := analyzeJob(b.Name, b.Code, core.DefaultOptions())
	job.MaxUnroll = 4096 // 1,924 sweep steps and about 50 context polls
	jobs := []Job[*core.Result]{job}
	full := newPollCancelCtx(math.MaxInt)
	if r := RunAll(full, New(1), jobs)[0]; r.Err != nil {
		t.Fatalf("uncanceled run: %v", r.Err)
	}
	full.mu.Lock()
	polls := math.MaxInt - full.remaining
	full.mu.Unlock()
	if polls <= 3 {
		t.Fatalf("an uncanceled run polls %d times: canceling on the third poll is not mid-fixpoint", polls)
	}
	results := RunAll(newPollCancelCtx(3), New(1), jobs)
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", results[0].Err)
	}
	if results[0].Value != nil {
		t.Error("canceled job carries a partial analysis result")
	}
}

// TestBatchMatchesSerial is the golden equivalence check: every WCET
// benchmark analyzed through the pool must report exactly the per-access
// classifications and summary counts of the serial path.
func TestBatchMatchesSerial(t *testing.T) {
	benches := bench.WCETBenchmarks()
	opts := core.DefaultOptions()
	jobs := make([]Job[*sidechannel.Report], len(benches))
	for i, b := range benches {
		jobs[i] = Job[*sidechannel.Report]{Name: b.Name, Source: b.Code, Analyze: Bind(sidechannel.AnalyzeContext, opts)}
	}
	results := RunAll(context.Background(), New(0), jobs)
	for i, b := range benches {
		r := results[i]
		if r.Err != nil {
			t.Fatalf("%s: %v", b.Name, r.Err)
		}
		prog, _, err := Compile(b.Code, 0, false)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		want, err := sidechannel.Analyze(prog, opts)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		got := r.Value
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
	jobs := []Job[*core.Result]{
		analyzeJob("bad", "int main( {", core.DefaultOptions()),
		analyzeJob("good", bench.Fig2Program(0), core.DefaultOptions()),
	}
	results := RunAll(context.Background(), p, jobs)
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
	jobs := []Job[*core.Result]{analyzeJob("fig2", bench.Fig2Program(0), core.DefaultOptions())}
	if r := RunAll(context.Background(), p, jobs); r[0].Err != nil {
		t.Fatal(r[0].Err)
	}
	missesBefore := p.Snapshot().CacheMisses
	if r := RunAll(context.Background(), p, jobs); r[0].Err != nil {
		t.Fatal(r[0].Err)
	}
	missesAfter := p.Snapshot().CacheMisses
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
	RunAll(context.Background(), p, []Job[int]{stub("a", succeed), stub("boom", crash), stub("b", succeed)})
	s := p.Snapshot()
	want := obs.PoolSnapshot{Workers: 2, Submitted: 3, Completed: 3, Panics: 1}
	if s != want {
		t.Fatalf("after batch: %+v, want %+v", s, want)
	}

	// A canceled batch: two jobs park on the context, a third waits for a
	// worker slot until the cancellation ends its wait; all three count as
	// canceled completions.
	ctx, cancel := context.WithCancel(context.Background())
	running := make(chan struct{}, 2)
	block := func(ctx context.Context) (int, error) {
		running <- struct{}{}
		<-ctx.Done()
		return 0, ctx.Err()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunAll(ctx, p, []Job[int]{stub("b0", block), stub("b1", block), stub("b2", block)})
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

// TestWorkerBoundAcrossCalls checks that concurrent RunAll calls share the
// pool's worker slots: with one worker, four single-job calls run one job at
// a time, and no snapshot shows more jobs running than workers. While the
// only slot is held, a report-cache hit still completes, and a job waiting
// for the slot honours its context.
func TestWorkerBoundAcrossCalls(t *testing.T) {
	p := New(1)
	cached := cachedJob("fig2", bench.Fig2Program(-1), core.DefaultOptions())
	if r := RunAll(context.Background(), p, []Job[*sidechannel.Report]{cached})[0]; r.Err != nil || r.CacheHit {
		t.Fatalf("cold cached job: err %v, hit %v", r.Err, r.CacheHit)
	}
	checkBound := func(when string) {
		if s := p.Snapshot(); s.Running > int64(s.Workers) {
			t.Errorf("%s: %d jobs running on %d workers", when, s.Running, s.Workers)
		}
	}
	const calls = 4
	var active, peak atomic.Int64
	// One send per job that starts: the calls' jobs and the canceled one.
	started := make(chan struct{}, calls+1)
	release := make(chan struct{})
	block := func(ctx context.Context) (int, error) {
		n := active.Add(1)
		defer active.Add(-1)
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		checkBound("in a job")
		started <- struct{}{}
		select {
		case <-release:
			return 1, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	waitSubmitted := func(n int64) {
		for deadline := time.Now().Add(30 * time.Second); p.Snapshot().Submitted < n; {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d jobs submitted", p.Snapshot().Submitted, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunAll(context.Background(), p, []Job[int]{stub(fmt.Sprintf("block%d", i), block)})
		}()
	}
	<-started
	waitSubmitted(1 + calls)
	if s := p.Snapshot(); s.Running != 1 || s.QueueDepth != calls-1 {
		t.Errorf("one slot held, %d calls: running %d queue %d, want 1 and %d", calls, s.Running, s.QueueDepth, calls-1)
	}

	hit := make(chan Result[*sidechannel.Report], 1)
	go func() { hit <- RunAll(context.Background(), p, []Job[*sidechannel.Report]{cached})[0] }()
	select {
	case r := <-hit:
		if r.Err != nil || !r.CacheHit {
			t.Errorf("cached job: err %v, hit %v", r.Err, r.CacheHit)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a report-cache hit waited for the held worker slot")
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiting := make(chan Result[int], 1)
	go func() { waiting <- RunAll(ctx, p, []Job[int]{stub("waiting", block)})[0] }()
	waitSubmitted(1 + calls + 2)
	cancel()
	if r := <-waiting; !errors.Is(r.Err, context.Canceled) {
		t.Errorf("job canceled while waiting for a slot: got %v, want context.Canceled", r.Err)
	}

	for i := 0; i < calls; i++ {
		release <- struct{}{}
		checkBound("between jobs")
	}
	wg.Wait()
	if got := peak.Load(); got != 1 {
		t.Errorf("%d jobs ran at once on a one-worker pool", got)
	}
	if s := p.Snapshot(); s.Running != 0 || s.QueueDepth != 0 || s.Submitted != s.Completed {
		t.Errorf("after the calls: %+v", s)
	}
}

// expvarRuns numbers TestPublishExpvar's runs: expvar.Publish panics on a
// name published before in the process, as under go test -count=2.
var expvarRuns atomic.Int64

// TestPublishExpvar checks the pool registers on the process expvar page and
// renders its snapshot as JSON.
func TestPublishExpvar(t *testing.T) {
	p := New(1)
	name := fmt.Sprintf("specabsint-runner-test-pool-%d", expvarRuns.Add(1))
	p.PublishExpvar(name)
	v := expvar.Get(name)
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
