package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"specabsint/internal/bench"
)

// Workload names, in the order a full run executes them.
var workloadNames = []string{"paper-corpus", "nested-loops", "serve-mix"}

// metricDef names one reported metric and its unit. The lists below are the
// ones BENCHMARK.json declares; the smoke test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the analyzer sees, reported by the
// untraced run of every workload. Their times are CPU time scaled to a
// reference host (see cpuTime and speed).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_cpu_s", "s"},
	{"verdict_cpu_geomean_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics, reported by the traced run. Times
// are wall-clock: per-pass self times of layers every workload reaches, and
// serve-mix's open-loop latency at the serve layer; the times of the layers
// only serve-mix reaches (runner, serve) are in its per-layer table. Counts
// are per-pass sums and repeat exactly; a layer a workload never reaches
// counts 0 there (README.md maps each metric to the workloads that exercise
// it).
var perLayer = []metricDef{
	{"source.parse_ms", "ms"},
	{"lower.lower_ms", "ms"},
	{"passes.run_ms", "ms"},
	{"core.compile_exec_ms", "ms"},
	{"core.analyze_ms", "ms"},
	{"sidechannel.classify_ms", "ms"},
	{"wcet.estimate_ms", "ms"},
	{"wire.encode_ms", "ms"},
	{"machine.simulate_ms", "ms"},
	{"lower.instrs", "count"},
	{"lower.symbols", "count"},
	{"lower.blocks", "count"},
	{"passes.resolved_branches", "count"},
	{"core.universe_blocks", "count"},
	{"core.iterations", "count"},
	{"core.transfers", "count"},
	{"core.spec_transfers", "count"},
	{"core.joins", "count"},
	{"core.spec_joins", "count"},
	{"core.lane_joins", "count"},
	{"core.rollbacks", "count"},
	{"core.lanes_spawned", "count"},
	{"core.widenings", "count"},
	{"core.scan_words_est", "count"},
	{"core.result_mb", "MB"},
	{"core.alloc_mb", "MB"},
	{"wire.response_kb", "KB"},
	{"runner.report_hit_rate", "fraction"},
	{"runner.program_hit_rate", "fraction"},
	{"runner.queue_depth_max", "count"},
	{"serve.latency_p50_ms", "ms"},
	{"serve.latency_p95_ms", "ms"},
}

func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// maxFailures caps the failure descriptions one result carries.
const maxFailures = 20

// result is what one workload run reports to the parent process.
type result struct {
	Workload  string `json:"workload"`
	Programs  int    `json:"programs"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Failures describes the first failed operations and checks.
	Failures []string `json:"failures,omitempty"`
	// Digest hashes every program's verdicts in canonical program order: the
	// same code and seed always print the same digest, traced or not.
	Digest  string             `json:"digest"`
	Metrics map[string]float64 `json:"metrics"`
	// Samples keeps the per-round values behind the medians.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Layers is the traced run's rendered per-layer table.
	Layers string `json:"layers,omitempty"`
}

// fail records one failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation or check and records its failure.
func (r *result) check(err error) {
	r.Attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median. Every set-up after the first must reproduce the first one's
// verdict digests.
const setupRepeats = 3

// runWorkload runs one workload in this process. Errors that stop the
// workload are reported as a failure of the whole run.
func runWorkload(ctx context.Context, name string, cfg config) *result {
	res := &result{Workload: name, Metrics: map[string]float64{}, Samples: map[string][]float64{}}
	cal := &speed{}
	var err error
	switch name {
	case "paper-corpus":
		err = runAnalysis(ctx, cfg, res, cal, paperCorpus(cfg))
	case "nested-loops":
		err = runAnalysis(ctx, cfg, res, cal, nestedLoops(cfg))
	case "serve-mix":
		err = runServe(ctx, cfg, res, cal)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		res.Attempted++
		res.fail("%v", err)
	} else if !cfg.trace {
		cal.scale(res)
	}
	return res
}

// nproc is the load's concurrency: at most this many goroutines do work and
// at most this many connections carry requests.
func nproc() int { return runtime.NumCPU() }

// program is one input: a name and MiniC source.
type program struct {
	name string
	src  string
}

// limited applies the smoke test's program cap.
func limited(progs []program, limit int) []program {
	if limit > 0 && limit < len(progs) {
		return progs[:limit]
	}
	return progs
}

// paperPrograms are the 21 programs of the paper's evaluation (§7): Fig. 2,
// the Table 4 kernels in the Fig. 10 client with a 4 KiB attacker buffer,
// and the Table 3 kernels.
func paperPrograms() []program {
	out := []program{{"fig2", bench.Fig2Program(-1)}}
	for _, b := range bench.CryptoBenchmarks() {
		out = append(out, program{b.Name, bench.WithClient(b, 4096)})
	}
	for _, b := range bench.WCETBenchmarks() {
		out = append(out, program{b.Name, b.Code})
	}
	return out
}

// nestShapes are nested-loops' trip counts, outermost first. The trip
// products are fixed strata over 64..1024 and only the program text around
// them is drawn from the seed: the lowered size and the analysis cost then do
// not depend on the seed, so run-to-run spread measures the code, not the
// draw. 3-deep nests stop at 768 because 1024 iterations of the body lower
// past the largest corpus kernel (susan, 24,367 instructions).
var nestShapes = [][]int{{8, 8}, {4, 4, 8}, {16, 16}, {8, 8, 4}, {32, 16}, {8, 8, 8}, {8, 12, 8}, {32, 32}}

// maxNestInstrs is the lowered-size cap nested-loops programs must respect:
// susan's size, so any IR budget admitting the corpus admits this workload.
const maxNestInstrs = 24367

// nestProgram renders one nested-loops program: constant-trip loops with a
// block-scoped int declared in the innermost body, and one data-dependent
// branch per iteration of the second-innermost loop.
func nestProgram(rng *rand.Rand, dims []int) string {
	names := rng.Perm(len(arrayNames))
	src, dst, hist := arrayNames[names[0]], arrayNames[names[1]], arrayNames[names[2]]
	ops := []string{"+", "-", "^"}
	cmps := []string{">", "<", ">=", "<="}
	var sb strings.Builder
	fmt.Fprintf(&sb, "int %s[1024];\nint %s[256];\nint %s[16];\nint acc;\n", src, dst, hist)
	sb.WriteString("int main() {\n\treg int s;\n\ts = 0;\n")
	ivs := []string{"i", "j", "l"}
	idx := ""
	for d, n := range dims {
		fmt.Fprintf(&sb, "%sfor (int %s = 0; %s < %d; %s++) {\n", strings.Repeat("\t", d+1), ivs[d], ivs[d], n, ivs[d])
		if idx == "" {
			idx = ivs[d]
		} else {
			idx = fmt.Sprintf("(%s) * %d + %s", idx, n, ivs[d])
		}
	}
	in := strings.Repeat("\t", len(dims)+1)
	fmt.Fprintf(&sb, "%sint k;\n", in)
	fmt.Fprintf(&sb, "%sk = %s[(%s) & 1023] %s %d;\n", in, src, idx, ops[rng.Intn(len(ops))], 1+rng.Intn(15))
	fmt.Fprintf(&sb, "%s%s[(%s) & 255] = k %s s;\n", in, dst, idx, ops[rng.Intn(len(ops))])
	fmt.Fprintf(&sb, "%ss = s + k;\n", in)
	for d := len(dims) - 1; d >= 0; d-- {
		if d == len(dims)-2 {
			fmt.Fprintf(&sb, "%sif (s %s acc) { %s[%s & 15] = s; }\n",
				strings.Repeat("\t", d+2), cmps[rng.Intn(len(cmps))], hist, ivs[d])
		}
		fmt.Fprintf(&sb, "%s}\n", strings.Repeat("\t", d+1))
	}
	sb.WriteString("\tacc = s;\n\treturn s;\n}\n")
	return sb.String()
}

// arrayNames is the pool generated programs draw their array names from.
var arrayNames = []string{"src", "dst", "coef", "buf", "hist", "tab", "win", "ring", "lut", "obuf"}

func nestPrograms(seed int64) []program {
	rng := rand.New(rand.NewSource(seed))
	out := make([]program, len(nestShapes))
	for i, dims := range nestShapes {
		out[i] = program{fmt.Sprintf("nest%d", i), nestProgram(rng, dims)}
	}
	return out
}

// fits reports whether another round fits a budget of seconds from start:
// the first round always runs, a later one only if a round of the median
// length so far would end within the budget.
func fits(start time.Time, seconds float64, rounds []float64) bool {
	return len(rounds) == 0 || time.Since(start).Seconds()+median(rounds) <= seconds
}

// shuffled returns a seeded permutation of 0..n-1 for one timed round.
func shuffled(seed int64, round, n int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(round))).Perm(n)
}

// Statistics over measured samples.

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func geomean(xs []float64) float64 {
	logSum := 0.0
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// quantile is the q-quantile of xs, interpolated linearly between the two
// nearest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

// cpuTime is the CPU time this process has used, all its threads together.
// The end-to-end metrics time CPU, not the wall clock: on a shared host the
// wall-clock time of the same work swings with the other tenants' load (a
// fixed loop's spread over a minute was 0.39 in wall-clock time and 0.06 in
// CPU time), and the kernel's CPU accounting leaves out the time the host
// takes the CPUs away.
func cpuTime() time.Duration { return rusage(syscall.RUSAGE_SELF) }

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(who, &ru) // fails only on a bad argument
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// CPU time still follows the host: the same pass of the corpus took from
// 3.0 to 4.1 s of CPU time within five minutes, as other tenants contended
// for the cores and their caches. A run therefore also times a fixed
// calibration kernel between its timed operations and scales its CPU times
// by calibrationReference over the kernel's median time: over twelve
// minutes, medians of the same work then varied by a factor of 1.08
// instead of 1.32 (README.md).
const (
	// calibrationReference is the kernel's CPU time on the reference host
	// the scaled times refer to, close to its median on the 2-vCPU machine
	// the benchmark was sized on.
	calibrationReference = 10 * time.Millisecond
	// calibrationRounds sizes the kernel to about that time.
	calibrationRounds = 768
)

// calibrate runs the calibration kernel, SHA-256 over a 16 KiB buffer, which
// shares no code with the analyzer, and returns its thread's CPU time in
// ms. Of the kernels tried (an integer and table-lookup loop and a bitset
// loop were the others), it tracked the corpus's CPU time most closely.
func calibrate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]byte, 16<<10)
	start := rusage(syscall.RUSAGE_THREAD)
	for i := 0; i < calibrationRounds; i++ {
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
	}
	return ms(rusage(syscall.RUSAGE_THREAD) - start)
}

// speed collects a run's calibration samples, taken outside every timed
// section.
type speed struct{ samples []float64 }

func (s *speed) sample() { s.samples = append(s.samples, calibrate()) }

// scale multiplies the end-to-end times of an untraced run by the reference
// over the median sample, and keeps the samples. The per-round samples of
// the times stay as measured.
func (s *speed) scale(res *result) {
	res.Samples["calibration_ms"] = s.samples
	f := ms(calibrationReference) / median(s.samples)
	for _, m := range endToEnd {
		if m.unit == "s" || m.unit == "ms" {
			res.Metrics[m.name] *= f
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func secs(d time.Duration) float64 { return d.Seconds() }
