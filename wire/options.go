package wire

import (
	"fmt"

	"specabsint"
)

// Options is the wire form of an analysis configuration. Every field is
// optional: absent fields keep the paper's defaults (specabsint
// DefaultConfig), so a request body `{}` — or no options object at all —
// runs the canonical analysis. A fully-populated Options round-trips a
// Config exactly: FromConfig(cfg).Config() == cfg.
type Options struct {
	// Cache is the modeled data-cache geometry.
	Cache *CacheGeometry `json:"cache,omitempty"`
	// Speculative toggles the speculation-aware analysis; false runs the
	// classic baseline.
	Speculative *bool `json:"speculative,omitempty"`
	// DepthMiss / DepthHit bound the speculation window in instructions
	// (the paper's b_m / b_h).
	DepthMiss *int `json:"depth_miss,omitempty"`
	DepthHit  *int `json:"depth_hit,omitempty"`
	// DynamicDepthBounding toggles the §6.2 optimization.
	DynamicDepthBounding *bool `json:"dynamic_depth_bounding,omitempty"`
	// Strategy selects the merge strategy: "jit", "rollback" or "partition"
	// (the same names specanalyze -strategy accepts).
	Strategy *string `json:"strategy,omitempty"`
	// Scheduler is accepted for compatibility and ignored: "wto" and
	// "worklist" both run the analyzer's one fixpoint schedule, and any
	// other value is rejected. FromConfig never emits it.
	Scheduler *string `json:"scheduler,omitempty"`
	// Exec is accepted for compatibility and ignored: "compiled" and
	// "interp" both run the analyzer's one execution engine, and any other
	// value is rejected. FromConfig never emits it.
	Exec *string `json:"exec,omitempty"`
	// RefinedJoin toggles the Appendix-B shadow-variable refinement.
	RefinedJoin *bool `json:"refined_join,omitempty"`
	// MaxUnroll caps full unrolling of constant-trip loops at lowering time.
	MaxUnroll *int `json:"max_unroll,omitempty"`
	// Passes toggles the analysis-preserving pass pipeline after lowering.
	Passes *bool `json:"passes,omitempty"`
	// SetParallelism is accepted for compatibility and ignored: every
	// analysis runs one dense fixpoint, so any int decodes and changes
	// nothing. FromConfig never emits it.
	SetParallelism *int `json:"set_parallelism,omitempty"`
	// Stats requests the observability snapshot in the response report.
	Stats *bool `json:"stats,omitempty"`
	// MitigateVerify toggles the differential secret-pair trace check on
	// fence-synthesis results (specabsint.Mitigate); analysis requests
	// ignore it.
	MitigateVerify *bool `json:"mitigate_verify,omitempty"`
}

// CacheGeometry is the wire form of specabsint.CacheConfig.
type CacheGeometry struct {
	LineSize int `json:"line_size"`
	NumSets  int `json:"num_sets"`
	Assoc    int `json:"assoc"`
}

// Strategy wire names.
const (
	StrategyJIT       = "jit"
	StrategyRollback  = "rollback"
	StrategyPartition = "partition"
)

// strategyString renders a merge strategy into its frozen wire name.
func strategyString(s specabsint.Strategy) (string, error) {
	switch s {
	case specabsint.JustInTime:
		return StrategyJIT, nil
	case specabsint.MergeAtRollback:
		return StrategyRollback, nil
	case specabsint.PerRollbackBlock:
		return StrategyPartition, nil
	}
	return "", fmt.Errorf("wire: unknown merge strategy %v", s)
}

// strategyFromString is the inverse of strategyString.
func strategyFromString(s string) (specabsint.Strategy, error) {
	switch s {
	case StrategyJIT:
		return specabsint.JustInTime, nil
	case StrategyRollback:
		return specabsint.MergeAtRollback, nil
	case StrategyPartition:
		return specabsint.PerRollbackBlock, nil
	}
	return specabsint.JustInTime, fmt.Errorf("wire: unknown merge strategy %q (want %s, %s or %s)",
		s, StrategyJIT, StrategyRollback, StrategyPartition)
}

// Values the retired scheduler and exec fields accept (and ignore).
const (
	SchedulerWTO      = "wto"
	SchedulerWorklist = "worklist"
	ExecCompiled      = "compiled"
	ExecInterp        = "interp"
)

// checkRetired validates a retired no-op field: absent, or one of the two
// values it documented when it was a knob.
func checkRetired(field string, v *string, a, b string) error {
	if v == nil || *v == a || *v == b {
		return nil
	}
	return fmt.Errorf("wire: unknown %s %q (want %s or %s)", field, *v, a, b)
}

// FromConfig renders a Config with every field populated, so the document
// reconstructs the configuration exactly regardless of the receiver's
// defaults.
func FromConfig(cfg specabsint.Config) (*Options, error) {
	strat, err := strategyString(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	return &Options{
		Cache: &CacheGeometry{
			LineSize: cfg.Cache.LineSize,
			NumSets:  cfg.Cache.NumSets,
			Assoc:    cfg.Cache.Assoc,
		},
		Speculative:          ptr(cfg.Speculative),
		DepthMiss:            ptr(cfg.DepthMiss),
		DepthHit:             ptr(cfg.DepthHit),
		DynamicDepthBounding: ptr(cfg.DynamicDepthBounding),
		Strategy:             ptr(strat),
		RefinedJoin:          ptr(cfg.RefinedJoin),
		MaxUnroll:            ptr(cfg.MaxUnroll),
		Passes:               ptr(cfg.Passes),
		Stats:                ptr(cfg.Stats),
		MitigateVerify:       ptr(cfg.MitigateVerify),
	}, nil
}

func ptr[T any](v T) *T { return &v }

// Config resolves the document into a full configuration: the paper's
// defaults overridden by every present field. It rejects an unknown
// strategy, an unknown value of a retired field, and a cache geometry the
// analysis cannot model (CacheConfig.Validate). A nil *Options is valid and
// yields DefaultConfig. The returned Config converts to the option form
// with Config.Options — the reconstruction path every service entry point
// uses:
//
//	cfg, err := req.Options.Config()
//	rep, err := svc.Analyze(ctx, src, cfg.Options()...)
func (o *Options) Config() (specabsint.Config, error) {
	cfg := specabsint.DefaultConfig()
	if o == nil {
		return cfg, nil
	}
	if o.Cache != nil {
		cfg.Cache = specabsint.CacheConfig{
			LineSize: o.Cache.LineSize,
			NumSets:  o.Cache.NumSets,
			Assoc:    o.Cache.Assoc,
		}
		if err := cfg.Cache.Validate(); err != nil {
			return cfg, err
		}
	}
	if o.Speculative != nil {
		cfg.Speculative = *o.Speculative
	}
	if o.DepthMiss != nil {
		cfg.DepthMiss = *o.DepthMiss
	}
	if o.DepthHit != nil {
		cfg.DepthHit = *o.DepthHit
	}
	if o.DynamicDepthBounding != nil {
		cfg.DynamicDepthBounding = *o.DynamicDepthBounding
	}
	if o.Strategy != nil {
		strat, err := strategyFromString(*o.Strategy)
		if err != nil {
			return cfg, err
		}
		cfg.Strategy = strat
	}
	if err := checkRetired("scheduler", o.Scheduler, SchedulerWTO, SchedulerWorklist); err != nil {
		return cfg, err
	}
	if err := checkRetired("exec engine", o.Exec, ExecCompiled, ExecInterp); err != nil {
		return cfg, err
	}
	if o.RefinedJoin != nil {
		cfg.RefinedJoin = *o.RefinedJoin
	}
	if o.MaxUnroll != nil {
		cfg.MaxUnroll = *o.MaxUnroll
	}
	if o.Passes != nil {
		cfg.Passes = *o.Passes
	}
	if o.Stats != nil {
		cfg.Stats = *o.Stats
	}
	if o.MitigateVerify != nil {
		cfg.MitigateVerify = *o.MitigateVerify
	}
	return cfg, nil
}
