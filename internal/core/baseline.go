package core

import (
	"specabsint/internal/absint"
	"specabsint/internal/cache"
	"specabsint/internal/cfg"
	"specabsint/internal/interval"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
)

// cacheDomain adapts the abstract cache domain to the generic Algorithm-1
// solver, so the non-speculative baseline can be run through
// absint.Solve and cross-checked against the engine with Speculative=false.
type cacheDomain struct {
	dom    *cache.Domain
	l      *layout.Layout
	idx    *interval.Result
	access map[int]cache.Access
}

func (d *cacheDomain) Bottom() *cache.State { return cache.Bottom() }
func (d *cacheDomain) Entry() *cache.State  { return cache.NewState(d.l.NumBlocks) }

func (d *cacheDomain) TransferBlock(b *ir.Block, s *cache.State) *cache.State {
	out := s.Clone()
	for i := range b.Instrs {
		if acc, ok := d.access[b.Instrs[i].ID]; ok {
			d.dom.Transfer(out, acc)
		}
	}
	return out
}

func (d *cacheDomain) Join(a, b *cache.State) *cache.State { return d.dom.Join(a, b) }
func (d *cacheDomain) Leq(a, b *cache.State) bool          { return d.dom.Leq(a, b) }
func (d *cacheDomain) Widen(prev, next *cache.State) *cache.State {
	return d.dom.Widen(prev, next)
}

// AnalyzeAlgorithm1 runs the plain (non-speculative) cache analysis through
// the generic absint solver. It exists to validate that the speculative
// engine with Speculative=false computes the same fixpoint as the textbook
// Algorithm 1.
func AnalyzeAlgorithm1(prog *ir.Program, opts Options) (*Result, error) {
	l, err := layout.New(prog, opts.Cache)
	if err != nil {
		return nil, err
	}
	// The same order the engine sweeps: its heads are the interval
	// pre-pass's widening points, WCET's timing schema reads it, and its
	// effective successors are the edges the solver follows.
	wto := cfg.EffectiveWTO(prog)
	idx := interval.Analyze(prog, wto)
	d := &cacheDomain{
		dom:    &cache.Domain{L: l, Refined: opts.RefinedJoin},
		l:      l,
		idx:    idx,
		access: map[int]cache.Access{},
	}
	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpLoad || in.Op == ir.OpStore {
				d.access[in.ID] = resolveAccess(l, idx, in)
			}
		}
	}
	sol := absint.Solve[*cache.State](prog, wto.Succs, d, absint.Options{
		WideningThreshold: wideningThreshold,
	})
	res := &Result{
		Prog:       prog,
		Layout:     l,
		Opts:       opts,
		WTO:        wto,
		In:         sol.In,
		Access:     map[int]AccessInfo{},
		SpecAccess: map[int]cache.Classification{},
		Iterations: sol.Iterations,
		Branches:   prog.CondBranchCount(),
		domain:     d.dom,
		idx:        idx,
	}
	for _, b := range prog.Blocks {
		if sol.In[b.ID].IsBottom {
			continue
		}
		st := sol.In[b.ID].Clone()
		for i := range b.Instrs {
			in := &b.Instrs[i]
			acc, ok := d.access[in.ID]
			if !ok {
				continue
			}
			res.Access[in.ID] = AccessInfo{
				Instr: in, Block: b.ID, Acc: acc, Class: d.dom.Classify(st, acc),
			}
			d.dom.Transfer(st, acc)
		}
	}
	return res, nil
}
