package specabsint

// Option configures an analysis or compilation. Options are applied in
// order on top of the paper's defaults (DefaultConfig), so later options
// override earlier ones:
//
//	rep, err := specabsint.AnalyzeContext(ctx, prog,
//		specabsint.WithCache(specabsint.CacheConfig{LineSize: 64, NumSets: 1, Assoc: 128}),
//		specabsint.WithStrategy(specabsint.PerRollbackBlock),
//		specabsint.WithDepths(100, 10),
//	)
//
// The same options configure CompileOpts (only WithMaxUnroll and
// WithPasses affect compilation), AnalyzeContext, and the per-job overrides
// of AnalyzeBatch. A Config value reaches them through Config.Options.
type Option func(*Config)

// WithCache sets the modeled data-cache geometry.
func WithCache(cache CacheConfig) Option {
	return func(c *Config) { c.Cache = cache }
}

// WithStrategy selects the speculative-state merge strategy (Fig. 6).
func WithStrategy(s Strategy) Option {
	return func(c *Config) { c.Strategy = s }
}

// WithDepths bounds the speculation window in instructions: miss is the
// paper's b_m (window after a potentially missing branch condition), hit is
// b_h (window after a proved-hit condition, §6.2).
func WithDepths(miss, hit int) Option {
	return func(c *Config) { c.DepthMiss, c.DepthHit = miss, hit }
}

// WithRefinedJoin toggles the Appendix-B shadow-variable join refinement
// (on by default).
func WithRefinedJoin(on bool) Option {
	return func(c *Config) { c.RefinedJoin = on }
}

// WithSpeculation toggles the speculation-aware analysis; false runs the
// classic (unsound-under-speculation) baseline.
func WithSpeculation(on bool) Option {
	return func(c *Config) { c.Speculative = on }
}

// WithDynamicDepthBounding toggles the §6.2 optimization that shrinks the
// speculation window once the branch condition's loads are proved must-hits
// (on by default).
func WithDynamicDepthBounding(on bool) Option {
	return func(c *Config) { c.DynamicDepthBounding = on }
}

// WithStats populates Report.Stats with the run's observability snapshot:
// program shape, pass effects, the deterministic fixpoint counters, the
// partition section, and per-phase wall clock. Off by default — the
// un-instrumented engine path allocates nothing for stats. Everything except
// the phase timings is deterministic: identical across repeated runs.
func WithStats(on bool) Option {
	return func(c *Config) { c.Stats = on }
}

// WithPasses toggles the analysis-preserving pass pipeline (SCCP, copy
// propagation, branch resolution, DCE) that runs after lowering. On by
// default; it only affects CompileOpts and the compilations AnalyzeBatch
// performs. Disabling it analyzes the raw lowered IR — useful for debugging
// and for A/B precision comparisons.
func WithPasses(on bool) Option {
	return func(c *Config) { c.Passes = on }
}

// WithMaxUnroll caps full unrolling of constant-trip loops at lowering
// time. It only affects CompileOpts (and the compilations AnalyzeBatch
// performs); analysis entry points ignore it.
func WithMaxUnroll(n int) Option {
	return func(c *Config) { c.MaxUnroll = n }
}

// WithMitigateVerify toggles the differential secret-pair trace check
// Mitigate runs on the fenced program (on by default). The analysis entry
// points ignore it.
func WithMitigateVerify(on bool) Option {
	return func(c *Config) { c.MitigateVerify = on }
}

// Options renders the Config as the equivalent option list: applying the
// returned options to any starting configuration yields exactly c. Every
// field is emitted explicitly (zero values included), so a Config decoded
// from the wire — e.g. a specserve request — reconstructs the same analysis
// the option-based entry points would run:
//
//	rep, err := specabsint.AnalyzeContext(ctx, prog, cfg.Options()...)
//
// The round trip is exact: newConfig(cfg.Options()) == cfg for every cfg.
func (c Config) Options() []Option {
	return []Option{
		WithCache(c.Cache),
		WithSpeculation(c.Speculative),
		WithDepths(c.DepthMiss, c.DepthHit),
		WithDynamicDepthBounding(c.DynamicDepthBounding),
		WithStrategy(c.Strategy),
		WithRefinedJoin(c.RefinedJoin),
		WithMaxUnroll(c.MaxUnroll),
		WithPasses(c.Passes),
		WithStats(c.Stats),
		WithMitigateVerify(c.MitigateVerify),
	}
}

// newConfig applies opts on top of the paper's defaults.
func newConfig(opts []Option) Config {
	cfg := DefaultConfig()
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}
