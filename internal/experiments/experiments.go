// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the MiniC corpus: Table 3/4 (benchmark statistics),
// Table 5 (non-speculative vs speculative execution-time estimation),
// Table 6 (merge strategies), Table 7 (side-channel detection), the Fig. 2/3
// motivating example, and the §6.2/§6.3 ablations. The cmd/specbench binary
// and the repository's bench_test.go both drive this package.
//
// Every experiment runs the paper's configuration (§7): core.DefaultOptions
// (512 lines × 64 B, LRU, speculation depths 200 on a miss and 20 on a hit),
// on programs lowered at the lowering's default unroll cap. The sweeps run
// on a runner.Pool, the batch engine whose worker count caps their
// concurrency; sharing one across tables lets a full specbench run lower
// each benchmark once. A nil pool gives each sweep a private
// GOMAXPROCS-wide one.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"specabsint/internal/bench"
	"specabsint/internal/cache"
	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/machine"
	"specabsint/internal/runner"
	"specabsint/internal/sidechannel"
)

// orNew returns pool, or a private GOMAXPROCS-wide pool when it is nil.
func orNew(pool *runner.Pool) *runner.Pool {
	if pool != nil {
		return pool
	}
	return runner.New(0)
}

// options returns the paper's analysis options, speculative or not.
func options(speculative bool) core.Options {
	o := core.DefaultOptions()
	o.Speculative = speculative
	return o
}

// paperCache is the cache every experiment models, core.DefaultOptions'.
var paperCache = core.DefaultOptions().Cache

// StatRow is one line of Table 3 / Table 4.
type StatRow struct {
	Name        string
	Origin      string
	Description string
	LoC         int
}

// Table3 returns the WCET benchmark statistics.
func Table3() []StatRow { return statRows(bench.WCETBenchmarks()) }

// Table4 returns the side-channel benchmark statistics.
func Table4() []StatRow { return statRows(bench.CryptoBenchmarks()) }

func statRows(list []bench.Benchmark) []StatRow {
	rows := make([]StatRow, 0, len(list))
	for _, b := range list {
		rows = append(rows, StatRow{b.Name, b.Origin, b.Description, b.LoC()})
	}
	return rows
}

// Table5Row compares the non-speculative and speculative analyses on one
// WCET benchmark (Table 5 columns).
type Table5Row struct {
	Name        string
	NonSpecTime time.Duration
	NonSpecMiss int
	SpecTime    time.Duration
	SpecMiss    int
	SpecSpMiss  int
	Branches    int
	Iterations  int
}

// Table5 regenerates the execution-time estimation comparison. The per-
// benchmark (non-speculative, speculative) analysis pairs run concurrently
// on pool; rows come back in corpus order regardless of which worker
// finished first.
func Table5(ctx context.Context, pool *runner.Pool) ([]Table5Row, error) {
	benches := bench.WCETBenchmarks()
	var jobs []runner.Job[*core.Result]
	for _, b := range benches {
		jobs = append(jobs, job(b.Name+"/nonspec", b.Code, core.AnalyzeContext, options(false)))
		jobs = append(jobs, job(b.Name+"/spec", b.Code, core.AnalyzeContext, options(true)))
	}
	results, err := collect(runner.RunAll(ctx, orNew(pool), jobs))
	if err != nil {
		return nil, err
	}
	rows := make([]Table5Row, 0, len(benches))
	for i, b := range benches {
		base, spec := results[2*i], results[2*i+1]
		rows = append(rows, Table5Row{
			Name:        b.Name,
			Branches:    spec.Value.Branches,
			NonSpecTime: base.Elapsed,
			NonSpecMiss: base.Value.MissCount(),
			SpecTime:    spec.Elapsed,
			SpecMiss:    spec.Value.MissCount(),
			SpecSpMiss:  spec.Value.SpecMissCount(),
			Iterations:  spec.Value.Iterations,
		})
	}
	return rows, nil
}

// job builds a pool job that runs analyze under opts on one benchmark
// source.
func job[V any](name, code string, analyze func(context.Context, *ir.Program, core.Options) (V, error), opts core.Options) runner.Job[V] {
	return runner.Job[V]{Name: name, Source: code, Analyze: runner.Bind(analyze, opts)}
}

// collect fails a whole sweep on the first per-job error — the experiment
// tables are all-or-nothing — while keeping the job-order determinism of
// RunAll.
func collect[V any](results []runner.Result[V]) ([]runner.Result[V], error) {
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, r.Err)
		}
	}
	return results, nil
}

// Table6Row compares merge strategies on one benchmark (Table 6 columns).
type Table6Row struct {
	Name           string
	RollbackTime   time.Duration
	RollbackMiss   int
	RollbackSpMiss int
	RollbackIter   int
	JITTime        time.Duration
	JITMiss        int
	JITSpMiss      int
	JITIter        int
}

// Table6 regenerates the merging-strategy comparison (Fig. 6d vs Fig. 6c).
// Thanks to the pool's compile cache, each benchmark is lowered once and
// analyzed under both strategies concurrently.
func Table6(ctx context.Context, pool *runner.Pool) ([]Table6Row, error) {
	benches := bench.WCETBenchmarks()
	var jobs []runner.Job[*core.Result]
	for _, b := range benches {
		rbOpts := options(true)
		rbOpts.Strategy = core.StrategyMergeAtRollback
		jitOpts := options(true)
		jitOpts.Strategy = core.StrategyJustInTime
		jobs = append(jobs, job(b.Name+"/rollback", b.Code, core.AnalyzeContext, rbOpts))
		jobs = append(jobs, job(b.Name+"/jit", b.Code, core.AnalyzeContext, jitOpts))
	}
	results, err := collect(runner.RunAll(ctx, orNew(pool), jobs))
	if err != nil {
		return nil, err
	}
	rows := make([]Table6Row, 0, len(benches))
	for i, b := range benches {
		rb, jit := results[2*i], results[2*i+1]
		rows = append(rows, Table6Row{
			Name:           b.Name,
			RollbackTime:   rb.Elapsed,
			RollbackMiss:   rb.Value.MissCount(),
			RollbackSpMiss: rb.Value.SpecMissCount(),
			RollbackIter:   rb.Value.Iterations,
			JITTime:        jit.Elapsed,
			JITMiss:        jit.Value.MissCount(),
			JITSpMiss:      jit.Value.SpecMissCount(),
			JITIter:        jit.Value.Iterations,
		})
	}
	return rows, nil
}

// Table7Row is one line of the side-channel comparison.
type Table7Row struct {
	Name        string
	BufferBytes int
	NonSpecTime time.Duration
	NonSpecLeak bool
	SpecTime    time.Duration
	SpecLeak    bool
}

// Table7 regenerates the side-channel detection comparison. For each crypto
// kernel the client buffer size is swept (as in §7.3, from 32 KB down)
// until the two methods diverge; kernels with no diverging size are
// reported at the full 32 KB buffer.
func Table7(ctx context.Context, pool *runner.Pool) ([]Table7Row, error) {
	var rows []Table7Row
	for _, b := range bench.CryptoBenchmarks() {
		size, found, err := FindLeakThreshold(ctx, b, pool)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		if !found {
			size = paperCache.SizeBytes()
		}
		row, err := table7At(ctx, b, size, pool)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func table7At(ctx context.Context, b bench.Benchmark, bufBytes int, pool *runner.Pool) (Table7Row, error) {
	line := paperCache.LineSize
	v, elapsed, err := probeSizes(ctx, b, pool, []int{(bufBytes + line - 1) / line})
	if err != nil {
		return Table7Row{}, err
	}
	return Table7Row{
		Name:        b.Name,
		BufferBytes: bufBytes,
		NonSpecTime: elapsed[0].non,
		NonSpecLeak: v[0].non,
		SpecTime:    elapsed[0].spec,
		SpecLeak:    v[0].spec,
	}, nil
}

// probeVerdict is the (speculative, non-speculative) leak verdict at one
// buffer size.
type probeVerdict struct{ spec, non bool }

type probeTiming struct{ spec, non time.Duration }

// probeSizes analyzes the benchmark's client at each buffer size (in cache
// lines) under both analyses, fanning the 2*len(sizes) jobs out on pool.
// Verdicts come back indexed like sizes.
func probeSizes(ctx context.Context, b bench.Benchmark, pool *runner.Pool, sizes []int) ([]probeVerdict, []probeTiming, error) {
	line := paperCache.LineSize
	var jobs []runner.Job[*sidechannel.Report]
	for _, s := range sizes {
		code := bench.WithClient(b, s*line)
		for _, speculative := range []bool{true, false} {
			jobs = append(jobs, job(fmt.Sprintf("%s@%dL/spec=%v", b.Name, s, speculative),
				code, sidechannel.AnalyzeContext, options(speculative)))
		}
	}
	results, err := collect(runner.RunAll(ctx, orNew(pool), jobs))
	if err != nil {
		return nil, nil, err
	}
	verdicts := make([]probeVerdict, len(sizes))
	timings := make([]probeTiming, len(sizes))
	for i := range sizes {
		spec, non := results[2*i], results[2*i+1]
		verdicts[i] = probeVerdict{spec: spec.Value.LeakDetected(), non: non.Value.LeakDetected()}
		timings[i] = probeTiming{spec: spec.Elapsed, non: non.Elapsed}
	}
	return verdicts, timings, nil
}

// FindLeakThreshold sweeps the client buffer size and returns the smallest
// size (in bytes) at which the speculative analysis reports a leak while the
// non-speculative analysis does not. found is false when no such size
// exists up to the cache capacity.
//
// The sweep is guided: the cache pressure at which a single mis-speculated
// line tips an S-box line out is where the architectural working set
// exactly fills the cache, so the expected threshold is (cache lines −
// working-set lines). A narrow scan around that estimate finds the exact
// point; a coarse full sweep is the fallback for kernels with unusual
// structure.
func FindLeakThreshold(ctx context.Context, b bench.Benchmark, pool *runner.Pool) (size int, found bool, err error) {
	line := paperCache.LineSize
	maxLines := paperCache.Lines()
	probeAll := func(sizes []int) ([]probeVerdict, error) {
		v, _, err := probeSizes(ctx, b, pool, sizes)
		return v, err
	}

	guess, err := workingSetLines(ctx, b)
	if err != nil {
		return 0, false, err
	}
	// The minimal client already carries one buffer line; the window around
	// (cache − workingSet) covers layout rounding and the wrong-path lines.
	// The whole window is probed as one batch: the probes are independent,
	// and scanning the verdicts in ascending size order afterwards returns
	// the same threshold the serial scan did.
	center := maxLines - guess
	lo, hi := center-12, center+12
	if lo < 0 {
		lo = 0
	}
	if hi > maxLines {
		hi = maxLines
	}
	var window []int
	for s := lo; s <= hi; s++ {
		window = append(window, s)
	}
	verdicts, err := probeAll(window)
	if err != nil {
		return 0, false, err
	}
	for i, s := range window {
		if verdicts[i].spec && !verdicts[i].non {
			return s * line, true, nil
		}
	}
	// Fallback: binary search for the onset of the speculative leak.
	// Below the full-eviction regime the speculative verdict is monotone in
	// the buffer size, so the smallest leaking size is well-defined. The
	// probes here are inherently sequential (each depends on the previous
	// verdict), so they run one at a time.
	loS, hiS := 0, maxLines
	onset := -1
	for loS <= hiS {
		mid := (loS + hiS) / 2
		v, err := probeAll([]int{mid})
		if err != nil {
			return 0, false, err
		}
		if v[0].spec {
			onset = mid
			hiS = mid - 1
		} else {
			loS = mid + 1
		}
	}
	if onset < 0 {
		return 0, false, nil
	}
	// The window [spec onset, non-spec onset) may span a few lines; walk it
	// as one final batch.
	var tail []int
	for s := onset; s <= onset+8 && s <= maxLines; s++ {
		tail = append(tail, s)
	}
	verdicts, err = probeAll(tail)
	if err != nil {
		return 0, false, err
	}
	for i, s := range tail {
		if verdicts[i].spec && !verdicts[i].non {
			return s * line, true, nil
		}
	}
	return 0, false, nil
}

// workingSetLines estimates the distinct cache lines the client+kernel touch
// besides the attacker buffer, by compiling with a minimal buffer and
// collecting the candidate blocks of every architectural access.
func workingSetLines(ctx context.Context, b bench.Benchmark) (int, error) {
	prog, _, err := runner.Compile(bench.WithClient(b, 64), 0, false)
	if err != nil {
		return 0, err
	}
	res, err := core.AnalyzeContext(ctx, prog, options(false))
	if err != nil {
		return 0, err
	}
	touched := map[layout.BlockID]bool{}
	for _, info := range res.Access {
		for i := 0; i < info.Acc.Count; i++ {
			touched[info.Acc.First+layout.BlockID(i)] = true
		}
	}
	// Subtract the minimal buffer's own line.
	buf := prog.SymbolByName("client_inBuf")
	first, n := res.Layout.BlockRange(buf.ID)
	for i := 0; i < n; i++ {
		delete(touched, first+layout.BlockID(i))
	}
	return len(touched), nil
}

// Fig2Result replays the motivating example both abstractly and concretely.
type Fig2Result struct {
	// Abstract verdicts for the final ph[k] access.
	NonSpecAlwaysHit bool
	SpecAlwaysHit    bool
	// Concrete trace counts (Fig. 3).
	NonSpecMisses int64
	NonSpecHits   int64
	SpecMisses    int64
	SpecSpMisses  int64
}

// Fig2 regenerates the Fig. 2/3 motivating example.
func Fig2() (*Fig2Result, error) {
	res := &Fig2Result{}

	// Abstract: symbolic secret k.
	prog, _, err := runner.Compile(bench.Fig2Program(-1), 0, false)
	if err != nil {
		return nil, err
	}
	final := lastLoadOf(prog, "ph")
	base, err := core.Analyze(prog, options(false))
	if err != nil {
		return nil, err
	}
	if cls, ok := base.ClassOf(final.ID); ok {
		res.NonSpecAlwaysHit = cls == cache.AlwaysHit
	}
	spec, err := core.Analyze(prog, options(true))
	if err != nil {
		return nil, err
	}
	if cls, ok := spec.ClassOf(final.ID); ok {
		res.SpecAlwaysHit = cls == cache.AlwaysHit
	}

	// Concrete: k = 0 (the evicted line).
	conc, _, err := runner.Compile(bench.Fig2Program(0), 0, false)
	if err != nil {
		return nil, err
	}
	cfg := machine.DefaultConfig()
	cfg.DepthMiss, cfg.DepthHit = 0, 0
	stats, err := machine.RunProgram(conc, cfg)
	if err != nil {
		return nil, err
	}
	res.NonSpecMisses, res.NonSpecHits = stats.Misses, stats.Hits

	cfg = machine.DefaultConfig()
	cfg.ForceMispredict = true
	cfg.DepthMiss, cfg.DepthHit = 3, 3
	stats, err = machine.RunProgram(conc, cfg)
	if err != nil {
		return nil, err
	}
	res.SpecMisses, res.SpecSpMisses = stats.Misses, stats.SpecMisses
	return res, nil
}

func lastLoadOf(prog *ir.Program, name string) *ir.Instr {
	sym := prog.SymbolByName(name)
	var last *ir.Instr
	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpLoad && in.Sym == sym.ID {
				last = in
			}
		}
	}
	return last
}

// DepthRow is one line of the §6.2 dynamic-depth-bounding ablation.
type DepthRow struct {
	Name          string
	BoundedTime   time.Duration
	BoundedMiss   int
	BoundedIter   int
	UnboundedTime time.Duration
	UnboundedMiss int
	UnboundedIter int
}

// DepthAblation compares the speculative analysis with and without the
// §6.2 dynamic speculation-depth bounding, batched on pool.
func DepthAblation(ctx context.Context, pool *runner.Pool) ([]DepthRow, error) {
	benches := bench.WCETBenchmarks()
	var jobs []runner.Job[*core.Result]
	for _, b := range benches {
		onOpts := options(true)
		onOpts.DynamicDepthBounding = true
		offOpts := options(true)
		offOpts.DynamicDepthBounding = false
		jobs = append(jobs, job(b.Name+"/bounded", b.Code, core.AnalyzeContext, onOpts))
		jobs = append(jobs, job(b.Name+"/unbounded", b.Code, core.AnalyzeContext, offOpts))
	}
	results, err := collect(runner.RunAll(ctx, orNew(pool), jobs))
	if err != nil {
		return nil, err
	}
	rows := make([]DepthRow, 0, len(benches))
	for i, b := range benches {
		on, off := results[2*i], results[2*i+1]
		rows = append(rows, DepthRow{
			Name:          b.Name,
			BoundedTime:   on.Elapsed,
			BoundedMiss:   on.Value.MissCount(),
			BoundedIter:   on.Value.Iterations,
			UnboundedTime: off.Elapsed,
			UnboundedMiss: off.Value.MissCount(),
			UnboundedIter: off.Value.Iterations,
		})
	}
	return rows, nil
}

// FormatTable renders rows of strings as an aligned text table.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteString("\n")
	}
	writeRow(header)
	underline := make([]string, len(header))
	for i := range header {
		underline[i] = strings.Repeat("-", widths[i])
	}
	writeRow(underline)
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}
