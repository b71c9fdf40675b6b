package main

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"specabsint"
	"specabsint/internal/core"
	"specabsint/internal/layout"
)

// workload is an analysis workload: programs analyzed one at a time through
// the public API, CompileOpts then AnalyzeContext, under one cache.
type workload struct {
	gen   func(seed int64) []program
	cache layout.CacheConfig
	// knownAnswer checks the paper's answers on one program's reference.
	knownAnswer func(ctx context.Context, name string, r *reference) error
}

// reference is one program's result from the layer-by-layer pipeline: the
// verdict digest every timed run must reproduce, the per-layer work
// counters, and until the gate has checked it, the analysis the soundness
// gate replays.
type reference struct {
	digest   string
	analyzed *analyzed
	counts   map[string]float64
}

func analysisOptions(c layout.CacheConfig) core.Options {
	o := core.DefaultOptions()
	o.Cache = c
	return o
}

// timed is the measured operation, from source text to the Report through
// the public API. The returned function computes the verdict's digest
// outside the timed section.
func (w workload) timed(ctx context.Context, src string) (func() (string, error), error) {
	prog, err := specabsint.CompileOpts(src)
	if err != nil {
		return nil, err
	}
	rep, err := specabsint.AnalyzeContext(ctx, prog, specabsint.WithCache(w.cache))
	if err != nil {
		return nil, err
	}
	return func() (string, error) { return reportDigest(rep) }, nil
}

// analyze runs the layer-by-layer pipeline on one program, traced when tr
// is non-nil.
func (w workload) analyze(ctx context.Context, p program, tr *tracer, round int, memory bool) (*reference, error) {
	root := tr.begin("pipeline", p.name, round, -1)
	a, err := analyzeLayers(ctx, p.src, analysisOptions(w.cache), tr, p.name, round, root, memory)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	return &reference{digest: a.digest, analyzed: a, counts: a.counts}, nil
}

// paperCorpus is the paper's evaluation: the 21 programs under the paper's
// 512 x 64 B fully-associative cache with b_m = 200, b_h = 20.
func paperCorpus(cfg config) workload {
	return workload{
		gen:         func(int64) []program { return limited(paperPrograms(), cfg.limit) },
		cache:       layout.PaperConfig(),
		knownAnswer: paperKnownAnswer,
	}
}

func paperKnownAnswer(ctx context.Context, name string, r *reference) error {
	switch name {
	case "fig2":
		return checkFig2(ctx, r.analyzed)
	case "des":
		return checkDES(r.analyzed)
	}
	return nil
}

// nestedLoops analyzes the seeded nested-loop programs under the paper
// cache. Every program must lower within the corpus's largest size.
func nestedLoops(cfg config) workload {
	return workload{
		gen:   func(seed int64) []program { return limited(nestPrograms(seed), cfg.limit) },
		cache: layout.PaperConfig(),
		knownAnswer: func(_ context.Context, name string, r *reference) error {
			if n := r.counts["lower.instrs"]; n > maxNestInstrs {
				return fmt.Errorf("%s lowers to %.0f instructions, over the %d cap", name, n, maxNestInstrs)
			}
			return nil
		},
	}
}

// runAnalysis runs one analysis workload: set-up with the correctness
// gate, then the timed passes (or, when tracing, alternating untraced and
// traced reference passes).
func runAnalysis(ctx context.Context, cfg config, res *result, cal *speed, w workload) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// The first set-up's references go through the correctness gate; each
	// later set-up must reproduce their digests. peak_rss_mb is the largest
	// peak of any one analysis in any set-up.
	var progs []program
	var refs []*reference
	var setups []float64
	peak := 0.0
	for i := 0; i < setupRepeats; i++ {
		check := func(string, *reference) {}
		if i == 0 {
			check = func(name string, ref *reference) { gate(ctx, res, w, name, ref, tr) }
		}
		ps, rs, took, pk, err := setUp(ctx, cfg, w, cal, check)
		if err != nil {
			return err
		}
		if i == 0 {
			progs, refs = ps, rs
		} else {
			for j := range rs {
				res.check(sameDigest(ps[j], refs[j], rs[j], nil))
			}
		}
		setups, peak = append(setups, secs(took)), max(peak, pk)
	}
	res.Programs = len(progs)
	res.Samples["setup_s"] = setups
	res.Metrics["setup_s"], res.Metrics["peak_rss_mb"] = median(setups), peak
	digests := make([]string, len(refs))
	for i, r := range refs {
		digests[i] = r.digest
	}
	res.Digest = combinedDigest(digests)

	if !cfg.trace {
		timedPasses(ctx, cfg, res, w, cal, progs, refs)
		return nil
	}
	overhead := tracedPasses(ctx, cfg, res, w, progs, refs, tr)
	ls := tr.stats()
	layerMetrics(res, ls, refs)
	res.Layers = ls.table(res.Workload, []string{"tracing overhead: " + overhead})
	return tr.write(cfg.spansDir, res.Workload)
}

// setUp is one set-up of an analysis workload: generate the inputs from the
// seed, compile each through the public front end, which rejects a malformed
// input before any timing, then the warm-up pass. The warm-up is the first,
// cold pass: it runs the layer-by-layer pipeline, whose results are the
// reference every later pass must reproduce, and hands each program's full
// reference to check. Each program starts from a heap returned to the
// system, so the peak resident set is the largest one analysis needs on its
// own, whatever the order. The returned CPU time leaves out those resets,
// check and a calibration sample before each program.
func setUp(ctx context.Context, cfg config, w workload, cal *speed, check func(name string, ref *reference)) ([]program, []*reference, time.Duration, float64, error) {
	start := cpuTime()
	progs := w.gen(cfg.seed)
	for _, p := range progs {
		if _, err := specabsint.CompileOpts(p.src); err != nil {
			return nil, nil, 0, 0, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	setup := cpuTime() - start
	refs := make([]*reference, len(progs))
	peak := 0.0
	for i, p := range progs {
		cal.sample()
		debug.FreeOSMemory()
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return nil, nil, 0, 0, fmt.Errorf("resetting the peak resident set: %w", err)
		}
		t := cpuTime()
		ref, err := w.analyze(ctx, p, nil, 0, cfg.trace)
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("%s: %w", p.name, err)
		}
		setup += cpuTime() - t
		peak = max(peak, peakRSS(os.Getpid()))
		check(p.name, ref)
		// Only the digest and the counters stay live: the timed passes run on
		// a heap that holds nothing from the other programs.
		refs[i] = &reference{digest: ref.digest, counts: ref.counts}
	}
	return progs, refs, setup, peak, nil
}

// gate is the correctness gate on one program's reference, outside every
// timed section: its verdicts replayed on the concrete simulator, then the
// workload's known answers.
func gate(ctx context.Context, res *result, w workload, name string, ref *reference, tr *tracer) {
	sp := tr.begin("machine.simulate", name, gateRound, -1)
	err := checkSound(ref.analyzed.prog, ref.analyzed.verdicts, w.cache)
	tr.end(sp)
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	res.check(err)
	res.check(w.knownAnswer(ctx, name, ref))
}

// timedPasses measures the end-to-end metrics over sequential passes in a
// seeded order, one analysis at a time, on a warm heap, with a calibration
// sample before each. The budget is wall-clock time; the metrics are the CPU
// time of each operation.
func timedPasses(ctx context.Context, cfg config, res *result, w workload, cal *speed, progs []program, refs []*reference) {
	perProg := make([][]float64, len(progs))
	var passes, walls []float64
	start := time.Now()
	for r := 0; fits(start, cfg.seconds, walls); r++ {
		pass, wall := 0.0, time.Now()
		for _, i := range shuffled(cfg.seed, r, len(progs)) {
			cal.sample()
			t := cpuTime()
			digest, err := w.timed(ctx, progs[i].src)
			d := ms(cpuTime() - t)
			res.check(verify(progs[i], refs[i], digest, err))
			pass += d
			perProg[i] = append(perProg[i], d)
		}
		passes, walls = append(passes, pass/1000), append(walls, secs(time.Since(wall)))
	}
	res.Samples["pass_cpu_s"], res.Samples["pass_wall_s"] = passes, walls
	res.Metrics["pass_cpu_s"] = median(passes)
	medians := make([]float64, len(progs))
	for i, xs := range perProg {
		medians[i] = median(xs)
	}
	res.Metrics["verdict_cpu_geomean_ms"] = geomean(medians)
}

// tracedPasses alternates untraced and traced passes of the layer-by-layer
// pipeline over the budget and describes the tracing overhead: the ratio of
// their medians.
func tracedPasses(ctx context.Context, cfg config, res *result, w workload, progs []program, refs []*reference, tr *tracer) string {
	var plain, traced, rounds []float64
	start := time.Now()
	for r := 0; fits(start, cfg.seconds, rounds); r++ {
		order := shuffled(cfg.seed, r, len(progs))
		t := time.Now()
		for _, i := range order {
			ref, err := w.analyze(ctx, progs[i], nil, r, false)
			res.check(sameDigest(progs[i], refs[i], ref, err))
		}
		plain = append(plain, secs(time.Since(t)))
		for _, i := range order {
			ref, err := w.analyze(ctx, progs[i], tr, r, false)
			res.check(sameDigest(progs[i], refs[i], ref, err))
		}
		traced = append(traced, tr.passTime(r))
		rounds = append(rounds, secs(time.Since(t)))
	}
	return fmt.Sprintf("traced pass %.3f s / untraced pass %.3f s = %.3f (median of %d)",
		median(traced), median(plain), median(traced)/median(plain), len(traced))
}

// verify checks one timed operation: it succeeded and its verdict hashes
// like the reference's.
func verify(p program, ref *reference, digest func() (string, error), err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	d, err := digest()
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	if d != ref.digest {
		return fmt.Errorf("%s: verdict digest %.16s differs from the reference %.16s", p.name, d, ref.digest)
	}
	return nil
}

func sameDigest(p program, want, got *reference, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	if got.digest != want.digest {
		return fmt.Errorf("%s: verdict digest %.16s differs from the reference %.16s", p.name, got.digest, want.digest)
	}
	return nil
}

// spanLayers are the per-layer time metrics taken from span self times.
var spanLayers = []string{"source.parse", "lower.lower", "passes.run", "core.compile_exec", "core.analyze",
	"sidechannel.classify", "wcet.estimate", "wire.encode", "machine.simulate"}

// layerMetrics fills the per-layer metrics from the traced passes and the
// reference counters (per-pass sums).
func layerMetrics(res *result, ls layerStats, refs []*reference) {
	per := ls.perPass()
	for _, name := range spanLayers {
		res.Metrics[name+"_ms"] = per[name]
	}
	for _, r := range refs {
		for k, v := range r.counts {
			res.Metrics[k] += v
		}
	}
}

// peakRSS reads a process's VmHWM, its peak resident set, in MB.
func peakRSS(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
