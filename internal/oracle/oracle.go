// Package oracle is the differential soundness oracle: it checks the
// speculative abstract interpretation (internal/core, internal/sidechannel)
// against ground truth from the concrete speculative CPU simulator
// (internal/machine). The paper's central claim — the abstract cache states
// over-approximate every concrete speculative trace (§5, §6.3) — becomes an
// executable property here, plus the completeness and metamorphic relations
// that symbolic-execution tools in the same space (SpecuSym, KLEESpectre)
// validate their cache models with.
//
// For one MiniC program, Check verifies:
//
//   - must-hit / must-miss soundness: an access the analysis classifies
//     always-hit (always-miss) hits (misses) on every concrete trace —
//     speculative wrong-path lanes included — across cache geometries,
//     speculation depths, merge strategies, branch predictors, and concrete
//     input vectors;
//   - coverage: every concretely executed access is classified, and every
//     speculatively executed access is lane-analyzed;
//   - leak-detection completeness: when two traces differing only in
//     secret-tagged inputs disagree on the cache behaviour of a
//     secret-indexed access, the side-channel report must name that access
//     (valid for programs whose secrets never reach a branch, which
//     internal/gen guarantees);
//   - metamorphic window monotonicity: a larger speculation window reaches
//     a superset of lane-analyzed instructions and reports a superset of
//     Spectre gadgets;
//   - metamorphic unroll monotonicity: deeper loop unrolling never flips a
//     concretely executed line from always-hit to always-miss.
//
// Abstract analyses fan out through a runner.Pool (the PR-1 batch engine);
// concrete simulations run inline. Everything is deterministic in
// (source, Config), so a corpus file replays identically forever.
package oracle

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"specabsint/internal/cache"
	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/machine"
	"specabsint/internal/runner"
	"specabsint/internal/sidechannel"
	"specabsint/internal/taint"
)

// Property names one oracle property.
type Property string

// Oracle properties.
const (
	// MustHit: classified always-hit but missed on a concrete trace.
	MustHit Property = "must-hit"
	// MustMiss: classified always-miss but hit on a concrete trace.
	MustMiss Property = "must-miss"
	// Coverage: a concretely executed access the analysis never classified
	// (architecturally or, for wrong-path execution, in any lane).
	Coverage Property = "coverage"
	// LeakCompleteness: traces differing only in secrets diverge at a
	// secret-indexed access the report does not name.
	LeakCompleteness Property = "leak-completeness"
	// WindowMonotone: a larger speculation window lost a lane-analyzed
	// instruction or a reported Spectre gadget.
	WindowMonotone Property = "window-monotonicity"
	// UnrollMonotone: deeper unrolling flipped an executed line from
	// always-hit to always-miss.
	UnrollMonotone Property = "unroll-monotonicity"
	// Crash: an analysis or simulation failed outright (panic or error).
	Crash Property = "crash"
)

// Violation is one refuted property instance.
type Violation struct {
	Property Property
	// Config labels the analysis/simulation configuration that refuted it.
	Config string
	// InstrID / Line locate the offending access where applicable.
	InstrID int
	Line    int
	Detail  string
}

// String renders the violation for reports.
func (v Violation) String() string {
	loc := ""
	if v.Line > 0 {
		loc = fmt.Sprintf(" line %d (instr %d)", v.Line, v.InstrID)
	}
	return fmt.Sprintf("[%s]%s %s (%s)", v.Property, loc, v.Detail, v.Config)
}

// Config tunes the oracle sweep. The zero value is not useful; start from
// Default.
type Config struct {
	// Caches and Depths span the analysis configurations checked: the sweep
	// runs every (cache, depth) pair, cycling through the merge strategies
	// so each is exercised against each geometry family.
	Caches []layout.CacheConfig
	Depths []int
	// Predictors names the simulator predictors driven against every
	// analysis: "taken", "nottaken", "2bit", "gshare", "adversarial"; any
	// other name makes Check fail. A forced-mispredict run (maximal
	// wrong-path pollution) is always added.
	Predictors []string
	// InputVectors is the number of concrete input vectors per analysis
	// configuration (the first is all-zeros).
	InputVectors int
	// SecretPairs are (s1, s2) secret assignments compared by the
	// leak-completeness property.
	SecretPairs [][2]int64
	// Pool runs the abstract analyses; nil creates a private pool.
	Pool *runner.Pool
}

// The parts of the sweep every configuration shares.
const (
	// inputName is the scalar varied across concrete input vectors besides
	// the secret scalars, when the program has it as an uninitialized
	// scalar (generated programs take main's parameter as inp).
	inputName = "inp"
	// smallWindow and largeWindow are the speculation depths the window
	// monotonicity property compares.
	smallWindow, largeWindow = 4, 40
	// smallUnroll is the reduced MaxUnroll the unroll monotonicity property
	// compares against the lowering default.
	smallUnroll = 1
	// maxSteps bounds each concrete simulation.
	maxSteps = 2_000_000
	// seed derives the random input vectors.
	seed = 1
	// maxViolations caps the violations collected per program.
	maxViolations = 20
)

// strategies are the merge strategies the soundness sweep cycles through.
var strategies = []core.Strategy{core.StrategyJustInTime, core.StrategyMergeAtRollback, core.StrategyPerRollbackBlock}

// Default is the standard oracle sweep: three cache geometries × three
// depths with the merge strategies cycled across them, three trained
// predictors plus forced misprediction, three input vectors, and the
// metamorphic relations.
func Default() Config {
	return Config{
		Caches: []layout.CacheConfig{
			{LineSize: 64, NumSets: 1, Assoc: 4},
			{LineSize: 64, NumSets: 2, Assoc: 2},
			{LineSize: 32, NumSets: 4, Assoc: 2},
		},
		Depths:       []int{0, 12, 60},
		Predictors:   []string{"2bit", "gshare", "adversarial"},
		InputVectors: 3,
		SecretPairs:  [][2]int64{{0, 15}, {3, 12}, {7, 8}},
	}
}

// Quick is a cut-down sweep for race-instrumented or short test runs: one
// cache per family, two depths, one trained predictor.
func Quick() Config {
	c := Default()
	c.Caches = c.Caches[:2]
	c.Depths = []int{0, 20}
	c.Predictors = []string{"adversarial"}
	c.InputVectors = 2
	c.SecretPairs = c.SecretPairs[:1]
	return c
}

// Result is a completed oracle run over one program.
type Result struct {
	// Violations lists every refuted property instance (at most
	// maxViolations).
	Violations []Violation
	// Analyses and Traces count the abstract analyses and concrete
	// simulations performed.
	Analyses int
	Traces   int
}

// Failed reports whether any property was refuted.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Check runs the full oracle sweep on one MiniC program. The returned error
// reports front-end failures (the program does not compile) and pool
// plumbing failures only; analysis crashes and refuted properties are
// Violations in the Result.
func Check(src string, cfg Config) (*Result, error) {
	return CheckContext(context.Background(), src, cfg)
}

// checker carries one program's sweep.
type checker struct {
	cfg  Config
	prog *ir.Program
	tnt  *taint.Result
	res  *Result
}

// CheckContext is Check with cancellation, threaded through the analysis
// pool into every fixpoint loop. A predictor name it does not know is an
// error, reported before anything is compiled or analyzed.
func CheckContext(ctx context.Context, src string, cfg Config) (*Result, error) {
	for _, name := range cfg.Predictors {
		if newPredictor(name) == nil {
			return nil, fmt.Errorf("oracle: unknown predictor %q", name)
		}
	}
	// Compiling verifies the IR after lowering and again after the passes,
	// so a lowering or pipeline bug surfaces here as a positioned
	// diagnostic rather than as a bogus soundness violation downstream.
	prog, _, err := runner.Compile(src, 0, true)
	if err != nil {
		return nil, fmt.Errorf("oracle: compile: %w", err)
	}
	pool := cfg.Pool
	if pool == nil {
		pool = runner.New(0)
	}

	c := &checker{cfg: cfg, prog: prog, tnt: taint.Analyze(prog), res: &Result{}}

	// One batch carries every abstract analysis of the sweep: the
	// (cache × depth) soundness combos, the window-monotonicity pair, and
	// the unroll pair (its reduced-unroll side Source-keyed, so the pool's
	// compile cache provides the re-lowered program; its default side is
	// the program compiled above).
	combos := c.combos()
	jobs := make([]runner.Job[*sidechannel.Report], 0, len(combos)+2+2)
	for _, cb := range combos {
		jobs = append(jobs, runner.Job[*sidechannel.Report]{Name: cb.label, Prog: prog,
			Analyze: runner.Bind(sidechannel.AnalyzeContext, cb.opts)})
	}
	windowBase := len(jobs)
	for _, d := range []int{smallWindow, largeWindow} {
		opts := c.baseOpts()
		opts.DepthMiss, opts.DepthHit = d, d
		jobs = append(jobs, runner.Job[*sidechannel.Report]{Name: fmt.Sprintf("window-d%d", d), Prog: prog,
			Analyze: runner.Bind(sidechannel.AnalyzeContext, opts)})
	}
	// The unroll pair runs at speculation depth 0: with no wrong path,
	// concrete traces are identical across unroll levels, which is what
	// makes the cross-unroll relation sound (see checkUnrollMonotone).
	unrollBase := len(jobs)
	unrollOpts := c.baseOpts()
	unrollOpts.DepthMiss, unrollOpts.DepthHit = 0, 0
	analyze := runner.Bind(sidechannel.AnalyzeContext, unrollOpts)
	jobs = append(jobs,
		runner.Job[*sidechannel.Report]{Name: fmt.Sprintf("unroll-%d", smallUnroll), Source: src,
			MaxUnroll: smallUnroll, Passes: true, Analyze: analyze},
		runner.Job[*sidechannel.Report]{Name: "unroll-default", Prog: prog, Analyze: analyze})

	results := runner.RunAll(ctx, pool, jobs)
	c.res.Analyses = len(results)
	for _, r := range results {
		if r.Err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			c.violate(Violation{Property: Crash, Config: r.Name, Detail: fmt.Sprintf("analysis failed: %v", r.Err)})
		}
	}
	if c.res.Failed() { // analyses crashed; nothing sound to compare against
		return c.res, nil
	}

	// Property sweep. Soundness and leak completeness per combo; the
	// metamorphic properties on their dedicated jobs.
	for i, cb := range combos {
		c.checkSoundness(results[i].Value.Analysis, cb)
		c.checkLeakCompleteness(results[i].Value, cb)
	}
	c.checkWindowMonotone(results[windowBase].Value, results[windowBase+1].Value)
	c.checkUnrollMonotone(results[unrollBase].Value.Analysis, results[unrollBase+1].Value.Analysis)
	return c.res, nil
}

// combo is one (cache, depth, strategy) analysis configuration.
type combo struct {
	opts  core.Options
	label string
}

func (c *checker) baseOpts() core.Options {
	opts := core.DefaultOptions()
	opts.Cache = c.cfg.Caches[0]
	return opts
}

// combos builds the soundness sweep: every (cache, depth) pair with the
// strategies cycled across pairs, alternating the refined join.
func (c *checker) combos() []combo {
	var out []combo
	i := 0
	for _, cc := range c.cfg.Caches {
		for _, d := range c.cfg.Depths {
			opts := core.DefaultOptions()
			opts.Cache = cc
			opts.DepthMiss, opts.DepthHit = d, d
			opts.Strategy = strategies[i%len(strategies)]
			opts.RefinedJoin = i%2 == 0
			out = append(out, combo{
				opts:  opts,
				label: fmt.Sprintf("cache=%dx%dw%d depth=%d strat=%v", cc.NumSets, cc.Assoc, cc.LineSize, d, opts.Strategy),
			})
			i++
		}
	}
	return out
}

func (c *checker) violate(v Violation) {
	if len(c.res.Violations) < maxViolations {
		c.res.Violations = append(c.res.Violations, v)
	}
}

// newPredictor returns a fresh predictor of the named kind (see
// Config.Predictors), or nil for a name it does not know.
func newPredictor(name string) machine.Predictor {
	switch name {
	case "2bit":
		return machine.NewTwoBit()
	case "taken":
		return machine.AlwaysTaken{}
	case "nottaken":
		return machine.NeverTaken{}
	case "gshare":
		return machine.NewGShare(8)
	case "adversarial":
		return machine.NewAdversarial()
	}
	return nil
}

// inputSymbols resolves the scalars varied across input vectors:
// inputName when it is an uninitialized memory scalar, plus every secret
// scalar.
func (c *checker) inputSymbols() []string {
	var names []string
	seen := map[string]bool{}
	add := func(s *ir.Symbol) {
		if s != nil && s.Len == 1 && len(s.Init) == 0 && !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
	}
	add(c.prog.SymbolByName(inputName))
	for _, s := range c.prog.Symbols {
		if s.Secret {
			add(s)
		}
	}
	sort.Strings(names)
	return names
}

// vectors builds the concrete input vectors: all-zeros first, then random
// assignments drawn deterministically from the oracle seed.
func (c *checker) vectors() []map[string]int64 {
	names := c.inputSymbols()
	out := []map[string]int64{nil}
	if len(names) == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for len(out) < c.cfg.InputVectors {
		v := make(map[string]int64, len(names))
		for _, n := range names {
			v[n] = int64(rng.Intn(64) - 8)
		}
		out = append(out, v)
	}
	return out
}

// checkSoundness replays the program concretely under every predictor and
// input vector and asserts the analysis verdicts over-approximate the
// observed hits and misses, on architectural and wrong-path accesses alike.
func (c *checker) checkSoundness(res *core.Result, cb combo) {
	vectors := c.vectors()
	for _, pname := range c.cfg.Predictors {
		for vi, vec := range vectors {
			simCfg := machine.Config{
				Cache:        cb.opts.Cache,
				Predictor:    newPredictor(pname),
				DepthMiss:    cb.opts.DepthMiss,
				DepthHit:     cb.opts.DepthHit,
				WrongPathOOB: true,
				MaxSteps:     maxSteps,
				Inputs:       vec,
			}
			c.simCheck(res, simCfg, fmt.Sprintf("%s pred=%s vec=%d", cb.label, pname, vi))
		}
	}
	for vi, vec := range vectors {
		simCfg := machine.Config{
			Cache:           cb.opts.Cache,
			ForceMispredict: true,
			DepthMiss:       cb.opts.DepthMiss,
			DepthHit:        cb.opts.DepthHit,
			WrongPathOOB:    true,
			MaxSteps:        maxSteps,
			Inputs:          vec,
		}
		c.simCheck(res, simCfg, fmt.Sprintf("%s forced vec=%d", cb.label, vi))
	}
}

// simCheck runs one concrete simulation and compares every observed access
// against the abstract verdicts.
func (c *checker) simCheck(res *core.Result, simCfg machine.Config, label string) {
	sim, err := machine.New(c.prog, simCfg)
	if err != nil {
		c.violate(Violation{Property: Crash, Config: label, Detail: fmt.Sprintf("simulator: %v", err)})
		return
	}
	c.res.Traces++
	lineOf := func(id int) int {
		if a, ok := res.Access[id]; ok {
			return a.Instr.Line
		}
		return 0
	}
	sim.OnAccess = func(r machine.AccessRecord) {
		if len(c.res.Violations) >= maxViolations {
			return
		}
		if r.Speculative {
			cls, ok := res.SpecAccess[r.InstrID]
			if !ok {
				c.violate(Violation{Property: Coverage, Config: label, InstrID: r.InstrID, Line: lineOf(r.InstrID),
					Detail: "executed speculatively but never lane-analyzed"})
				return
			}
			if cls == cache.AlwaysHit && !r.Hit {
				c.violate(Violation{Property: MustHit, Config: label, InstrID: r.InstrID, Line: lineOf(r.InstrID),
					Detail: "lane-classified always-hit but missed speculatively"})
			}
			if cls == cache.AlwaysMiss && r.Hit {
				c.violate(Violation{Property: MustMiss, Config: label, InstrID: r.InstrID, Line: lineOf(r.InstrID),
					Detail: "lane-classified always-miss but hit speculatively"})
			}
			return
		}
		cls, ok := res.ClassOf(r.InstrID)
		if !ok {
			c.violate(Violation{Property: Coverage, Config: label, InstrID: r.InstrID,
				Detail: "executed architecturally but not classified"})
			return
		}
		if cls == cache.AlwaysHit && !r.Hit {
			c.violate(Violation{Property: MustHit, Config: label, InstrID: r.InstrID, Line: lineOf(r.InstrID),
				Detail: "classified always-hit but missed"})
		}
		if cls == cache.AlwaysMiss && r.Hit {
			c.violate(Violation{Property: MustMiss, Config: label, InstrID: r.InstrID, Line: lineOf(r.InstrID),
				Detail: "classified always-miss but hit"})
		}
	}
	if err := sim.Run(); err != nil {
		c.violate(Violation{Property: Crash, Config: label, Detail: fmt.Sprintf("simulation failed: %v", err)})
	}
}
