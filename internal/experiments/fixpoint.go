package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"specabsint/internal/bench"
	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/mitigate"
	"specabsint/internal/passes"
)

// FixpointBaseline records the seed engine's cost on the reference kernel,
// measured before the pooled fixpoint core landed (same kernel, same paper
// options, same container class). BENCH_fixpoint.json carries it next to the
// current numbers so the perf trajectory is visible in one file.
var FixpointBaseline = FixpointSample{
	NsPerOp:     324_000_000,
	AllocsPerOp: 191_184,
}

// FixpointSample is one measurement of the full speculative fixpoint.
type FixpointSample struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
}

// BenchMeta identifies the environment a benchmark report was produced in.
// Without it, ns/op entries recorded on different machines or toolchains are
// silently incomparable; with it, a regression can be told apart from a
// hardware change.
type BenchMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Commit is the VCS revision baked in by the Go toolchain (empty when the
	// binary was built outside version control); "-dirty" marks uncommitted
	// changes.
	Commit string `json:"commit,omitempty"`
	// PassConfig lists the enabled analysis-preserving passes of the
	// measured pipeline configuration, in execution order.
	PassConfig []string `json:"pass_config,omitempty"`
}

// NewBenchMeta samples the current process's environment.
func NewBenchMeta() BenchMeta {
	m := BenchMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if m.Commit != "" && modified {
			m.Commit += "-dirty"
		}
	}
	return m
}

// FixpointReport is the machine-readable output of the fixpoint benchmark.
type FixpointReport struct {
	Kernel string `json:"kernel"`
	Rounds int    `json:"rounds"`
	// Meta records the environment the numbers were measured in.
	Meta BenchMeta `json:"meta"`
	// Now measures the engine on the raw lowered IR (passes off) — the same
	// configuration Baseline was recorded under, keeping the pre-pooling
	// comparison apples-to-apples across PRs.
	Now FixpointSample `json:"now"`
	// Baseline is the pre-pooling seed engine on the same kernel/options.
	Baseline FixpointSample `json:"baseline"`
	// AllocRatio is baseline allocs/op over current allocs/op (higher is
	// better; the PR's acceptance bar was >= 5).
	AllocRatio float64 `json:"alloc_ratio"`
	// WithPasses measures the same fixpoint on the pass-pipeline output
	// (SCCP + copy propagation + branch resolution + DCE): resolved branches
	// spawn no speculative colors, so the engine solves a smaller flow
	// system for byte-identical-or-tighter classifications.
	WithPasses FixpointSample `json:"with_passes"`
	// PassesSpeedup is Now ns/op over WithPasses ns/op (>= 1 means the
	// pipeline pays for itself; the transform runs once, the fixpoint many
	// iterations).
	PassesSpeedup float64 `json:"passes_speedup"`
	// PassesIterations is the transformed fixpoint's worklist block count,
	// next to Iterations for the untransformed one.
	PassesIterations int `json:"passes_iterations"`
	// ResolvedKernel shows the pipeline on the corpus kernel where branch
	// resolution fires hardest; g72 has no statically-decided branches, so
	// its speedup hovers at 1.0x and this is where the lane reduction pays.
	ResolvedKernel *ResolvedKernelDemo `json:"resolved_kernel,omitempty"`
	// Mitigation sweeps the fence synthesizer over the corpus: one row per
	// leak-reporting kernel, recording the synthesized fence count, the
	// residual, and the WCET overhead the repair costs.
	Mitigation *MitigationSummary `json:"mitigation,omitempty"`
	// StatesPooledPerOp counts scratch states served from the engine's free
	// list instead of the heap, per analysis.
	StatesPooledPerOp int `json:"states_pooled_per_op"`
	// Iterations is the fixpoint's worklist block count (a determinism
	// canary: it must not vary run to run).
	Iterations int `json:"iterations"`
}

// MitigationKernelRow is the fence synthesizer's outcome on one
// leak-reporting kernel.
type MitigationKernelRow struct {
	Kernel string `json:"kernel"`
	// BaselineLeaks / BaselineGadgets count the unfenced kernel's reported
	// cache timing leaks and Spectre transmission gadgets.
	BaselineLeaks   int `json:"baseline_leaks"`
	BaselineGadgets int `json:"baseline_gadgets"`
	// ResidualLeaks counts what survives the fence set; nonzero means the
	// remaining leaks are architectural (the classic analysis reports them
	// too) and no fence can remove them.
	ResidualLeaks int `json:"residual_leaks"`
	Fences        int `json:"fences"`
	// Analyses counts the re-analysis runs the greedy search spent.
	Analyses int `json:"analyses"`
	// BaselineWCET / MitigatedWCET are the architectural worst-case cycle
	// bounds; omitted when the kernel's CFG is cyclic (WCETBounded false).
	BaselineWCET  int64 `json:"baseline_wcet,omitempty"`
	MitigatedWCET int64 `json:"mitigated_wcet,omitempty"`
	WCETBounded   bool  `json:"wcet_bounded"`
	// OverheadPercent is the WCET cost of the repair; negative overhead is
	// real (killing speculation also removes wrong-path misses).
	OverheadPercent float64 `json:"overhead_percent"`
}

// MitigationSummary is the fence-synthesis section of the fixpoint report.
type MitigationSummary struct {
	// Kernels holds one row per corpus kernel (plus the paper's Fig. 2
	// example) on which the analysis reports at least one leak or gadget.
	Kernels []MitigationKernelRow `json:"kernels"`
	// FullyRepaired counts rows whose residual is zero.
	FullyRepaired int `json:"fully_repaired"`
}

// ResolvedKernelDemo is the pass pipeline measured on a kernel with
// statically-decided branches: every resolved branch removes two speculative
// lanes from the flow system the fixpoint has to solve.
type ResolvedKernelDemo struct {
	Kernel           string         `json:"kernel"`
	ResolvedBranches int            `json:"resolved_branches"`
	LanesBefore      int            `json:"lanes_before"`
	LanesAfter       int            `json:"lanes_after"`
	Off              FixpointSample `json:"off"`
	On               FixpointSample `json:"on"`
	Speedup          float64        `json:"speedup"`
}

// FixpointBench measures the full speculative fixpoint on the reference
// medium kernel (g72, paper options) and returns the report. rounds <= 0
// picks enough rounds for a stable median on a quiet machine.
func FixpointBench(rounds int) (*FixpointReport, error) {
	const kernel = "g72"
	b, ok := bench.ByName(kernel)
	if !ok {
		return nil, fmt.Errorf("fixpoint: kernel %q not in corpus", kernel)
	}
	prog, err := bench.Compile(b.Code, 0)
	if err != nil {
		return nil, err
	}
	// Second compile of the same kernel for the pass pipeline: the transform
	// mutates the program in place, so the passes-off measurement needs its
	// own untouched copy.
	transformed, err := bench.Compile(b.Code, 0)
	if err != nil {
		return nil, err
	}
	if _, err := passes.Run(transformed, passes.Default()); err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()

	// Warm-up runs, also the source of the pool and iteration counters.
	warm, err := core.Analyze(prog, opts)
	if err != nil {
		return nil, err
	}
	warmOn, err := core.Analyze(transformed, opts)
	if err != nil {
		return nil, err
	}
	if rounds <= 0 {
		rounds = 5
	}

	now, err := timeAnalyze(prog, opts, rounds)
	if err != nil {
		return nil, err
	}
	withPasses, err := timeAnalyze(transformed, opts, rounds)
	if err != nil {
		return nil, err
	}

	rep := &FixpointReport{
		Kernel:            kernel,
		Rounds:            rounds,
		Meta:              NewBenchMeta(),
		Now:               now,
		Baseline:          FixpointBaseline,
		WithPasses:        withPasses,
		PassesIterations:  warmOn.Iterations,
		StatesPooledPerOp: warm.PoolStats.Reused(),
		Iterations:        warm.Iterations,
	}
	if rep.Now.AllocsPerOp > 0 {
		rep.AllocRatio = float64(rep.Baseline.AllocsPerOp) / float64(rep.Now.AllocsPerOp)
	}
	if rep.WithPasses.NsPerOp > 0 {
		rep.PassesSpeedup = float64(rep.Now.NsPerOp) / float64(rep.WithPasses.NsPerOp)
	}
	rep.Meta.PassConfig = passNames(passes.Default())
	demo, err := resolvedKernelDemo(opts, rounds)
	if err != nil {
		return nil, err
	}
	rep.ResolvedKernel = demo
	mit, err := mitigationSummary()
	if err != nil {
		return nil, err
	}
	rep.Mitigation = mit
	return rep, nil
}

// passNames renders a pass configuration as the pipeline's execution order.
func passNames(o passes.Options) []string {
	var names []string
	if o.SCCP {
		names = append(names, "sccp")
	}
	if o.CopyProp {
		names = append(names, "copyprop")
	}
	if o.ResolveBranches {
		names = append(names, "resolve")
	}
	if o.DCE {
		names = append(names, "dce")
	}
	return names
}

// mitigationSummary sweeps the fence synthesizer over the corpus plus the
// paper's Fig. 2 example and records one row per kernel the analysis flags.
// SideChannel kernels get the standard 4 KiB client wrapper, matching the
// CLI drivers; clean kernels produce no row (the synthesizer is a no-op on
// them and their WCET is unchanged by construction).
func mitigationSummary() (*MitigationSummary, error) {
	type entry struct {
		name string
		code string
	}
	entries := []entry{{"fig2", bench.Fig2Program(-1)}}
	for _, b := range bench.All() {
		code := b.Code
		if b.Kind == bench.SideChannel {
			code = bench.WithClient(b, 4096)
		}
		entries = append(entries, entry{b.Name, code})
	}
	sum := &MitigationSummary{}
	for _, e := range entries {
		prog, err := bench.Compile(e.code, 0)
		if err != nil {
			return nil, fmt.Errorf("mitigation %s: %w", e.name, err)
		}
		res, err := mitigate.Synthesize(context.Background(), prog, mitigate.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("mitigation %s: %w", e.name, err)
		}
		if res.BaselineLeaks+res.BaselineGadgets == 0 {
			continue
		}
		row := MitigationKernelRow{
			Kernel:          e.name,
			BaselineLeaks:   res.BaselineLeaks,
			BaselineGadgets: res.BaselineGadgets,
			ResidualLeaks:   res.ResidualLeaks,
			Fences:          len(res.Fences),
			Analyses:        res.Analyses,
			WCETBounded:     res.WCETBounded,
			OverheadPercent: res.OverheadPercent,
		}
		if res.WCETBounded {
			row.BaselineWCET = res.BaselineWCET
			row.MitigatedWCET = res.MitigatedWCET
		}
		if row.ResidualLeaks == 0 {
			sum.FullyRepaired++
		}
		sum.Kernels = append(sum.Kernels, row)
	}
	return sum, nil
}

// resolvedKernelDemo measures the pipeline on jcmarker, the corpus kernel
// with the most statically-decided branches (guard chains against constant
// marker codes), where resolving them shrinks the speculative flow system.
func resolvedKernelDemo(opts core.Options, rounds int) (*ResolvedKernelDemo, error) {
	const kernel = "jcmarker"
	b, ok := bench.ByName(kernel)
	if !ok {
		return nil, fmt.Errorf("fixpoint: kernel %q not in corpus", kernel)
	}
	plain, err := bench.Compile(b.Code, 0)
	if err != nil {
		return nil, err
	}
	transformed, err := bench.Compile(b.Code, 0)
	if err != nil {
		return nil, err
	}
	lanesBefore := transformed.CondBranchCount() * 2
	res, err := passes.Run(transformed, passes.Default())
	if err != nil {
		return nil, err
	}
	demo := &ResolvedKernelDemo{
		Kernel:           kernel,
		ResolvedBranches: res.ResolvedBranches,
		LanesBefore:      lanesBefore,
		LanesAfter:       transformed.CondBranchCount() * 2,
	}
	if demo.Off, err = timeAnalyze(plain, opts, rounds); err != nil {
		return nil, err
	}
	if demo.On, err = timeAnalyze(transformed, opts, rounds); err != nil {
		return nil, err
	}
	if demo.On.NsPerOp > 0 {
		demo.Speedup = float64(demo.Off.NsPerOp) / float64(demo.On.NsPerOp)
	}
	return demo, nil
}

// timeAnalyze runs the fixpoint rounds times over one program and returns the
// per-op wall clock and allocation figures.
func timeAnalyze(prog *ir.Program, opts core.Options, rounds int) (FixpointSample, error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := core.Analyze(prog, opts); err != nil {
			return FixpointSample{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return FixpointSample{
		NsPerOp:     elapsed.Nanoseconds() / int64(rounds),
		AllocsPerOp: int64(ms1.Mallocs-ms0.Mallocs) / int64(rounds),
		BytesPerOp:  int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(rounds),
	}, nil
}

// WriteJSON writes the report to path (pretty-printed, trailing newline).
func (r *FixpointReport) WriteJSON(path string) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
