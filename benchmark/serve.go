package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"specabsint"
	"specabsint/internal/gen"
	"specabsint/internal/layout"
	"specabsint/wire"
)

// defaultRate is serve-mix's open-loop arrival rate, frozen so that runs
// compare. It is an assumed load, not one observed in any deployment. It is
// kept low because on a shared host the daemon's capacity swings with the
// host's speed and queueing amplifies the swing: 50 requests/s was 20% to
// 60% of the closed-loop capacity on 2 CPUs, and its latency spread 0.9
// over ten runs.
const defaultRate = 25.0

// openShare is the part of the measurement budget spent in the open loop;
// the closed-loop rounds get the rest.
const openShare = 0.75

// closedFresh numbers the closed loop's first fresh program, past any the
// open loop can use.
const closedFresh = 1 << 20

// maxLag is how late the open-loop generator may run (p99) before the run's
// latencies stop meaning what they claim. Latency is timed from each
// request's due time, so a late generator only adds to it. A run past the
// limit is reported on stderr, not failed: the analyzer's answers are still
// right.
const maxLag = 10 * time.Millisecond

// request is one unit of serve-mix load.
type request struct {
	id string
	// corpus indexes the repeated corpus program; -1 marks a unique program.
	corpus int
	src    string
	body   []byte
}

// planner deals requests in blocks: every corpus program once and 3/7 as
// many fresh gen.Sized(4) programs, shuffled, so every block has the 70/30
// mix of report-cache hits and cold analyses. The mix is an assumption, not
// measured traffic: what serve-mix shows about the cache tiers holds for
// this mix only. The seed draws the order; the n-th fresh program is the
// same on every seed. A fresh program's compile and analysis cost varies
// widely (9 ms mean, 10 ms standard deviation), and drawn from the seed the
// fresh programs widened the seed-to-seed spread of latency from about 0.1
// to about 0.18: it measured the draw, not the service.
type planner struct {
	corpus []program
	rng    *rand.Rand
	unique int
}

func (p *planner) block() ([]*request, error) {
	n := max(1, int(math.Round(float64(len(p.corpus))*3/7)))
	var out []*request
	for i, c := range p.corpus {
		out = append(out, &request{id: c.name, corpus: i, src: c.src})
	}
	for i := 0; i < n; i++ {
		p.unique++
		src := gen.Program(rand.New(rand.NewSource(int64(p.unique))), gen.Sized(4))
		out = append(out, &request{id: fmt.Sprintf("u%d", p.unique), corpus: -1, src: src})
	}
	p.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for _, r := range out {
		body, err := wire.Marshal(wire.AnalyzeRequest{Name: r.id, Source: r.src})
		if err != nil {
			return nil, err
		}
		r.body = body
	}
	return out, nil
}

// openPlan draws the open loop's Poisson arrivals for the given duration and
// deals a request to each.
func openPlan(p *planner, seed int64, rate, seconds float64) ([]*request, []time.Duration, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var due []time.Duration
	for t := rng.ExpFloat64() / rate; t < seconds; t += rng.ExpFloat64() / rate {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	var reqs []*request
	for len(reqs) < len(due) {
		b, err := p.block()
		if err != nil {
			return nil, nil, err
		}
		reqs = append(reqs, b...)
	}
	return reqs[:len(due)], due, nil
}

// daemon is a running cmd/specserve child.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// stderrDone closes once the daemon's stderr reaches EOF.
	stderrDone chan struct{}
	mu         sync.Mutex
	tail       []string
	stopped    bool
}

// startDaemon starts specserve on a free loopback port and returns once it
// answers /v1/healthz.
func startDaemon(path string) (*daemon, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(nproc()))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderrDone: make(chan struct{})}
	listening := make(chan string, 1)
	go func() {
		defer close(d.stderrDone)
		found := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 10 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if _, after, ok := strings.Cut(line, "listening on "); ok && !found {
				found = true
				addr, _, _ := strings.Cut(after, " ")
				listening <- addr
			}
		}
	}()
	deadline := time.After(30 * time.Second)
	select {
	case d.addr = <-listening:
		c := newClient(d.addr, 1)
		for {
			if resp, err := c.http.Get(c.base + "/v1/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
			select {
			case <-deadline:
				d.stop()
				return nil, fmt.Errorf("specserve is not ready: %s", d.stderrTail())
			case <-time.After(2 * time.Millisecond):
			}
		}
	case <-d.stderrDone:
	case <-deadline:
	}
	d.stop()
	return nil, fmt.Errorf("specserve did not start listening: %s", d.stderrTail())
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// stop sends SIGTERM and waits for the drain; an exit code other than 0 is
// an error. Stopping twice is a no-op.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Process.Kill()
	}
	<-d.stderrDone
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("specserve drain: %v (%s)", err, d.stderrTail())
	}
	return nil
}

// client sends requests over at most nproc loopback connections.
type client struct {
	http *http.Client
	base string
}

func newClient(addr string, conns int) *client {
	return &client{
		http: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
		base: "http://" + addr,
	}
}

// reply is one completed /v1/analyze exchange.
type reply struct {
	digest   string
	cacheHit bool
	// elapsed is the server's own time for the job (elapsed_nanos).
	elapsed time.Duration
	// reportSize is the length of the response's report document.
	reportSize int
	// body is the whole response and report its report part, from the
	// report's key on; both are kept only when asked for.
	body, report []byte
	// Client-side events: sent, request written, first response byte, body
	// read. wrote and first are only observed on traced requests.
	sent, wrote, first, done time.Time
}

// analyze sends one request. A response whose report is byte-identical to
// warm's takes warm's digest: comparing costs far less than hashing a report
// of up to 2 MB, and the client shares the daemon's CPUs.
func (c *client) analyze(ctx context.Context, body []byte, traced, keep bool, warm *reply) (reply, error) {
	var r reply
	var wrote, first atomic.Int64
	if traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(time.Now().UnixNano()) },
			GotFirstResponseByte: func() { first.Store(time.Now().UnixNano()) },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	req.Header.Set("Content-Type", "application/json")
	r.sent = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return r, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.wrote, r.first = time.Unix(0, wrote.Load()), time.Unix(0, first.Load())
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, data)
	}
	i := bytes.Index(data, reportKey)
	if i < 0 {
		return r, fmt.Errorf("response carries no report")
	}
	if warm != nil && bytes.Equal(data[i:], warm.report) {
		r.digest = warm.digest
	} else if r.digest, err = bodyDigest(data); err != nil {
		return r, err
	}
	r.reportSize = reportSize(data)
	// The envelope before the report is small: decode it alone.
	j := i + len(reportKey)
	var env struct {
		CacheHit     bool  `json:"cache_hit"`
		ElapsedNanos int64 `json:"elapsed_nanos"`
	}
	if err := json.Unmarshal(append(data[:j:j], "null}"...), &env); err != nil {
		return r, fmt.Errorf("response envelope: %w", err)
	}
	r.cacheHit, r.elapsed = env.CacheHit, time.Duration(env.ElapsedNanos)
	if keep {
		r.body, r.report = data, data[i:]
	}
	return r, nil
}

// metrics fetches the daemon's /v1/metrics document.
func (c *client) metrics(ctx context.Context) (*wire.Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var m wire.Metrics
	if err := wire.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// sample is one request's outcome.
type sample struct {
	req *request
	rep reply
	err error
	// Open loop only: lat runs from the request's due time to its body being
	// read; lag is how late the generator issued it.
	lat, lag time.Duration
	// round is the request's traced round, or openRound / untraced.
	round int
}

// serveRun carries one serve-mix run's state.
type serveRun struct {
	res     *result
	c       *client
	tr      *tracer
	corpus  []program
	warm    []reply
	uniques []sample
}

// record checks one sample and, in a traced round, records its client-side
// spans. Repeats must hash like the corpus program's warm-up response;
// unique programs are checked against an in-process analysis afterwards.
func (s *serveRun) record(smp sample) {
	if smp.err != nil {
		s.res.check(fmt.Errorf("%s: %w", smp.req.id, smp.err))
		return
	}
	if smp.req.corpus >= 0 {
		if want := s.warm[smp.req.corpus].digest; smp.rep.digest != want {
			s.res.check(fmt.Errorf("%s: response digest %.16s differs from the warm-up response %.16s", smp.req.id, smp.rep.digest, want))
			return
		}
		s.res.check(nil)
	} else {
		s.uniques = append(s.uniques, smp)
	}
	if s.tr != nil && smp.round != untraced {
		r := smp.rep
		root := s.tr.record("request", smp.req.id, smp.round, -1, r.sent, r.done)
		s.tr.record("http.send", smp.req.id, smp.round, root, r.sent, r.wrote)
		s.tr.record("http.wait", smp.req.id, smp.round, root, r.wrote, r.first)
		s.tr.record("http.body", smp.req.id, smp.round, root, r.first, r.done)
	}
}

// openLoop sends reqs at their due times from one generator goroutine to
// nproc senders. A request waiting for a free connection keeps its due time,
// so its wait counts in its latency.
func (s *serveRun) openLoop(ctx context.Context, reqs []*request, due []time.Duration) []sample {
	out := make([]sample, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends: the generator never blocks
	start := time.Now()
	go func() {
		defer close(queue)
		for i, d := range due {
			time.Sleep(time.Until(start.Add(d)))
			out[i].lag = time.Since(start) - d
			queue <- i
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				rep, err := s.c.analyze(ctx, reqs[i].body, true, false, s.warmOf(reqs[i]))
				out[i].req, out[i].rep, out[i].err, out[i].round = reqs[i], rep, err, openRound
				out[i].lat = rep.done.Sub(start.Add(due[i]))
			}
		}()
	}
	wg.Wait()
	return out
}

// warmOf returns the warm-up response a repeat must reproduce; nil for a
// unique program.
func (s *serveRun) warmOf(r *request) *reply {
	if r.corpus < 0 {
		return nil
	}
	return &s.warm[r.corpus]
}

// closedRound sends one block with nproc clients, each sending its next
// request when the previous one completes.
func (s *serveRun) closedRound(ctx context.Context, reqs []*request, round int, keep bool) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	start := time.Now()
	parallel(len(reqs), func(i int) {
		rep, err := s.c.analyze(ctx, reqs[i].body, round != untraced, keep, s.warmOf(reqs[i]))
		out[i] = sample{req: reqs[i], rep: rep, err: err, round: round}
	})
	return out, time.Since(start)
}

// parallel runs fn(0..n-1) on nproc goroutines and waits for them.
func parallel(n int, fn func(i int)) {
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < min(nproc(), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runServe runs serve-mix: the real specserve daemon, its report cache warmed
// with the corpus, over loopback HTTP. The untraced run sends whole blocks
// one request at a time and times the daemon's CPU for each request; the
// traced run puts the daemon under an open loop of Poisson arrivals, then
// closed-loop rounds, for the wall-clock view of its layers.
func runServe(ctx context.Context, cfg config, res *result, cal *speed) error {
	if cfg.specserve == "" {
		return fmt.Errorf("serve-mix needs -specserve (run.sh builds it)")
	}
	s := &serveRun{res: res, corpus: limited(paperPrograms(), cfg.limit)}
	res.Programs = len(s.corpus)

	// Every set-up has a daemon of its own and must reproduce the first
	// warm-up's responses; the last set-up's daemon serves the load.
	// peak_rss_mb is the largest of the daemons' peaks right after the
	// warm-up, so it does not cover memory gained while serving: under load
	// the resident set grows to wherever the collector's heap goal stood
	// after the last cold analysis, which depends on where in that analysis
	// its last collection fell (417 to 665 MB over ten seeds).
	var d *daemon
	var setups []float64
	var first string
	peak := 0.0
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		var took time.Duration
		var err error
		cal.sample()
		d, took, err = s.setUp(ctx, cfg)
		if err != nil {
			return err
		}
		setups = append(setups, secs(took))
		peak = max(peak, peakRSS(d.cmd.Process.Pid))
		warm := make([]string, len(s.warm))
		for j := range s.warm {
			warm[j] = s.warm[j].digest
		}
		got := combinedDigest(warm)
		if i == 0 {
			first = got
			continue
		}
		err = nil
		if got != first {
			err = fmt.Errorf("set-up %d: warm-up digest %s differs from the first set-up's %s", i+1, got, first)
		}
		res.check(err)
	}
	defer d.stop()
	res.Samples["setup_s"] = setups
	res.Metrics["setup_s"], res.Metrics["peak_rss_mb"] = median(setups), peak
	res.check(serveKnownAnswers(s.corpus, s.warm))
	res.Digest = first
	for i := range s.warm {
		s.warm[i].body = nil
	}

	plan := &planner{corpus: s.corpus, rng: rand.New(rand.NewSource(cfg.seed))}
	if cfg.trace {
		return s.tracedLoad(ctx, cfg, d, plan)
	}
	if err := s.cpuLoad(ctx, cfg, d.cmd.Process.Pid, plan, cal); err != nil {
		return err
	}
	res.check(d.stop())
	s.verifyUniques(ctx)
	return nil
}

// cpuLoad sends whole blocks for the budget and times the daemon's CPU for
// each request, which is why the requests go one at a time. The n-th block
// holds the same programs on every seed, in a seeded order. pass_cpu_s is
// the mean over the blocks, not the median: the daemon's collections, which
// mark its caches, fall in some blocks and not others, and the mean charges
// each block its share. A calibration sample precedes each block; the
// daemon runs on the same CPUs as the benchmark.
func (s *serveRun) cpuLoad(ctx context.Context, cfg config, pid int, plan *planner, cal *speed) error {
	perProg := make([][]float64, len(s.corpus))
	var passes, walls []float64
	start := time.Now()
	for fits(start, cfg.seconds, walls) {
		block, err := plan.block()
		if err != nil {
			return err
		}
		pass, wall := 0.0, time.Now()
		cal.sample()
		for _, req := range block {
			c0, err := threadsCPU(pid)
			if err != nil {
				return err
			}
			rep, err := s.c.analyze(ctx, req.body, false, false, s.warmOf(req))
			c1, cerr := threadsCPU(pid)
			if cerr != nil {
				return cerr
			}
			s.record(sample{req: req, rep: rep, err: err, round: untraced})
			d := ms(c1 - c0)
			pass += d
			if req.corpus >= 0 {
				perProg[req.corpus] = append(perProg[req.corpus], d)
			}
		}
		passes, walls = append(passes, pass/1000), append(walls, secs(time.Since(wall)))
	}
	medians := make([]float64, len(perProg))
	for i, xs := range perProg {
		medians[i] = median(xs)
	}
	res := s.res
	res.Samples["pass_cpu_s"], res.Samples["pass_wall_s"] = passes, walls
	res.Metrics["pass_cpu_s"] = mean(passes)
	res.Metrics["verdict_cpu_geomean_ms"] = geomean(medians)
	return nil
}

// tracedLoad runs the traced variant: an open loop of Poisson arrivals at
// the frozen rate, then closed-loop rounds that alternate untraced and traced
// blocks, which gives the tracing overhead. It stops the daemon, checks the
// unique programs and fills the per-layer metrics.
func (s *serveRun) tracedLoad(ctx context.Context, cfg config, d *daemon, plan *planner) error {
	res := s.res
	s.tr = newTracer()
	open, due, err := openPlan(plan, cfg.seed, cfg.rate, openShare*cfg.seconds)
	if err != nil {
		return err
	}
	before, err := s.c.metrics(ctx)
	if err != nil {
		return err
	}
	var queueMax atomic.Int64
	stopSampler := sampleQueue(ctx, d.addr, &queueMax)
	defer stopSampler()

	openSamples := s.openLoop(ctx, open, due)
	for _, smp := range openSamples {
		s.record(smp)
	}
	after, err := s.c.metrics(ctx)
	if err != nil {
		return err
	}

	// The rounds draw their fresh programs from a sequence of their own, so
	// round r sends the same programs on every seed, however many the open
	// loop's Poisson arrivals used.
	if plan.unique >= closedFresh {
		return fmt.Errorf("the open loop used %d fresh programs, past the closed loop's first (%d)", plan.unique, closedFresh)
	}
	plan.unique = closedFresh
	var rounds, plain, traced []float64
	var kept [][]sample
	closedStart := time.Now()
	for r := 0; fits(closedStart, (1-openShare)*cfg.seconds, rounds) || len(traced) == 0; r++ {
		block, err := plan.block()
		if err != nil {
			return err
		}
		round := untraced
		if r%2 == 1 {
			round = len(kept)
		}
		samples, took := s.closedRound(ctx, block, round, round != untraced)
		for _, smp := range samples {
			s.record(smp)
		}
		rounds = append(rounds, secs(took))
		if round == untraced {
			plain = append(plain, secs(took))
		} else {
			traced = append(traced, secs(took))
			kept = append(kept, samples)
		}
	}
	stopSampler()
	res.check(d.stop())

	perRound := s.verifyUniques(ctx)
	var lags []float64
	for _, smp := range openSamples {
		lags = append(lags, ms(smp.lag))
	}
	if lag := quantile(lags, 0.99); lag > ms(maxLag) {
		fmt.Fprintf(os.Stderr, "serve-mix: warning: the open-loop generator ran %.1f ms late at p99 (limit %v); this run's latencies include its lateness\n", lag, maxLag)
	}
	notes := s.layerMetrics(kept, perRound, before, after, openSamples, queueMax.Load())
	overhead := fmt.Sprintf("tracing overhead: traced round %.3f s / untraced round %.3f s = %.3f (median of %d)",
		median(traced), median(plain), median(traced)/median(plain), len(traced))
	res.Layers = s.tr.stats().table(res.Workload, append([]string{overhead}, notes...))
	return s.tr.write(cfg.spansDir, res.Workload)
}

// setUp is one serve-mix set-up: compile the corpus through the public front
// end to order the warm-up, start the daemon and warm its report cache. The
// warm-up sends every corpus program once; its responses, in s.warm, are the
// reference every repeat must reproduce. They go one at a time, smallest
// program first, so the largest analysis runs last on a heap the smaller
// ones settled. The returned time is the CPU time of this process and of
// the daemon.
func (s *serveRun) setUp(ctx context.Context, cfg config) (*daemon, time.Duration, error) {
	start := cpuTime()
	warmOrder, err := smallestFirst(s.corpus)
	if err != nil {
		return nil, 0, err
	}
	d, err := startDaemon(cfg.specserve)
	if err != nil {
		return nil, 0, err
	}
	s.c = newClient(d.addr, nproc())
	s.warm = make([]reply, len(s.corpus))
	for _, i := range warmOrder {
		p := s.corpus[i]
		body, err := wire.Marshal(wire.AnalyzeRequest{Name: p.name, Source: p.src})
		if err == nil {
			s.warm[i], err = s.c.analyze(ctx, body, false, true, nil)
		}
		if err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("warm-up %s: %w", p.name, err)
		}
	}
	own := cpuTime() - start
	daemonCPU, err := threadsCPU(d.cmd.Process.Pid)
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, own + daemonCPU, nil
}

// threadsCPU is the CPU time the live threads of process pid have run, from
// their schedstat: nanosecond resolution, and like getrusage it leaves out
// the time the host takes the CPUs away. A Go daemon's threads do not exit,
// so the sum covers all its work.
func threadsCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, t.Name())
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		sum += n
	}
	return time.Duration(sum), nil
}

// smallestFirst orders programs by ascending lowered size.
func smallestFirst(progs []program) ([]int, error) {
	size := make([]int, len(progs))
	order := make([]int, len(progs))
	for i, p := range progs {
		prog, err := specabsint.CompileOpts(p.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		size[i], order[i] = prog.Stats().Program.Instrs, i
	}
	sort.SliceStable(order, func(a, b int) bool { return size[order[a]] < size[order[b]] })
	return order, nil
}

// serveKnownAnswers checks the paper's leak verdicts on the daemon's
// warm-up responses: Fig. 2 and des in the 4 KiB client leak.
func serveKnownAnswers(corpus []program, warm []reply) error {
	for i, p := range corpus {
		if p.name != "fig2" && p.name != "des" {
			continue
		}
		var resp wire.AnalyzeResponse
		if err := wire.Unmarshal(warm[i].body, &resp); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if !resp.Report.LeakDetected {
			return fmt.Errorf("%s: the daemon reports no leak", p.name)
		}
	}
	return nil
}

// verifyUniques analyzes every unique program in-process, compares its
// digest with the daemon's response, and replays it on the simulator. It
// returns the per-layer counters summed per traced round.
func (s *serveRun) verifyUniques(ctx context.Context) map[int]map[string]float64 {
	errs := make([]error, len(s.uniques))
	var mu sync.Mutex
	perRound := map[int]map[string]float64{}
	opts := analysisOptions(layout.PaperConfig())
	parallel(len(s.uniques), func(i int) {
		u := s.uniques[i]
		var tr *tracer
		if u.round >= 0 {
			tr = s.tr
		}
		root := tr.begin("pipeline", u.req.id, u.round, -1)
		a, err := analyzeLayers(ctx, u.req.src, opts, tr, u.req.id, u.round, root, false)
		tr.end(root)
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", u.req.id, err)
			return
		}
		if a.digest != u.rep.digest {
			errs[i] = fmt.Errorf("%s: the daemon's verdict digest %.16s differs from the in-process analysis %.16s", u.req.id, u.rep.digest, a.digest)
			return
		}
		sp := s.tr.begin("machine.simulate", u.req.id, gateRound, -1)
		errs[i] = checkSound(a.prog, a.verdicts, opts.Cache)
		s.tr.end(sp)
		if errs[i] != nil {
			errs[i] = fmt.Errorf("%s: %w", u.req.id, errs[i])
		}
		if u.round >= 0 {
			mu.Lock()
			if perRound[u.round] == nil {
				perRound[u.round] = map[string]float64{}
			}
			for k, v := range a.counts {
				perRound[u.round][k] += v
			}
			mu.Unlock()
		}
	})
	for _, err := range errs {
		s.res.check(err)
	}
	return perRound
}

// layerMetrics fills serve-mix's per-layer metrics. Per pass means per
// traced closed-loop round: the client decodes each kept response and
// re-encodes the repeats (the encode the daemon pays per cache hit); the
// unique programs' encode is in their in-process analysis. Times are medians
// over the traced rounds; counts and sizes are the first traced round's, and
// the cache hit rates the open loop's, so that they repeat exactly. The
// serve layer's latency is the open loop's, timed from each request's due
// time. It returns the table's notes on the open loop: the daemon's own time for cold
// analyses, the time a request spent outside the daemon's job, and how late
// the generator ran.
func (s *serveRun) layerMetrics(kept [][]sample, counts map[int]map[string]float64, before, after *wire.Metrics, open []sample, queueMax int64) []string {
	res := s.res
	sizes := make([]float64, len(kept))
	for round, samples := range kept {
		for _, smp := range samples {
			if smp.err != nil {
				continue
			}
			sizes[round] += float64(smp.rep.reportSize) / 1000
			sp := s.tr.begin("wire.decode", smp.req.id, round, -1)
			var resp wire.AnalyzeResponse
			err := wire.Unmarshal(smp.rep.body, &resp)
			s.tr.end(sp)
			if err != nil {
				res.check(fmt.Errorf("%s: %w", smp.req.id, err))
				continue
			}
			if smp.req.corpus < 0 {
				continue
			}
			rep, err := resp.Report.ToReport()
			if err == nil {
				sp = s.tr.begin("wire.encode", smp.req.id, round, -1)
				_, err = responseBody(rep)
				s.tr.end(sp)
			}
			if err != nil {
				res.check(fmt.Errorf("%s: %w", smp.req.id, err))
			}
		}
	}
	per := s.tr.stats().perPass()
	for _, name := range spanLayers {
		res.Metrics[name+"_ms"] = per[name]
	}
	for _, m := range perLayer {
		if m.unit == "count" {
			res.Metrics[m.name] = counts[0][m.name]
		}
	}
	res.Metrics["wire.response_kb"] = sizes[0]

	pb, pa := before.Pool, after.Pool
	if n := (pa.ReportCacheHits - pb.ReportCacheHits) + (pa.ReportCacheMisses - pb.ReportCacheMisses); n > 0 {
		res.Metrics["runner.report_hit_rate"] = float64(pa.ReportCacheHits-pb.ReportCacheHits) / float64(n)
	}
	if n := (pa.CacheHits - pb.CacheHits) + (pa.CacheMisses - pb.CacheMisses); n > 0 {
		res.Metrics["runner.program_hit_rate"] = float64(pa.CacheHits-pb.CacheHits) / float64(n)
	}
	res.Metrics["runner.queue_depth_max"] = float64(queueMax)
	var analysis, overhead, lags, lats []float64
	for _, smp := range open {
		lags = append(lags, ms(smp.lag))
		if smp.err != nil {
			continue
		}
		lats = append(lats, ms(smp.lat))
		if !smp.rep.cacheHit {
			analysis = append(analysis, ms(smp.rep.elapsed))
		}
		overhead = append(overhead, ms(smp.rep.done.Sub(smp.rep.sent)-smp.rep.elapsed))
	}
	res.Metrics["serve.latency_p50_ms"] = quantile(lats, 0.5)
	res.Metrics["serve.latency_p95_ms"] = quantile(lats, 0.95)
	return []string{
		fmt.Sprintf("runner.analysis_p50_ms %.3f (elapsed_nanos of %d open-loop cache misses)", median(analysis), len(analysis)),
		fmt.Sprintf("serve.overhead_p50_ms %.3f (client latency minus elapsed_nanos, %d requests)", median(overhead), len(overhead)),
		fmt.Sprintf("serve.lag_p99_ms %.3f (open-loop generator lateness, limit %v)", quantile(lags, 0.99), maxLag),
	}
}

// sampleQueue polls /v1/metrics once a second over its own connection and
// keeps the deepest pool queue seen. The returned function stops it and
// waits for it to exit; calling it again does nothing.
func sampleQueue(ctx context.Context, addr string, deepest *atomic.Int64) func() {
	c := newClient(addr, 1)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if m, err := c.metrics(ctx); err == nil && m.Pool.QueueDepth > deepest.Load() {
					deepest.Store(m.Pool.QueueDepth)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(stop) })
		<-done
	}
}
