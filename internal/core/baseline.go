package core

import (
	"specabsint/internal/cache"
	"specabsint/internal/ir"
)

// AnalyzeAlgorithm1 is the paper's Algorithm 1, the plain non-speculative
// cache analysis, written as the textbook worklist fixpoint. It is the
// reference the engine with Speculative=false is held to: the same verdicts
// where widening does not decide them.
//
// It takes the layout, the effective-CFG WTO, the interval pre-pass, the
// access steps and the domain from the engine's prepare, and nothing else
// of the engine: a FIFO worklist over the WTO's successor lists pushes a
// clone of each block's in-state through its accesses, joins the result
// into every successor it is not already covered by, and widens a block's
// in-state on every change after its first wideningThreshold ones, loop
// head or not. Each reachable block's accesses are then classified in
// order.
func AnalyzeAlgorithm1(prog *ir.Program, opts Options) (*Result, error) {
	opts.Speculative = false
	e, err := prepare(prog, opts, dataCache)
	if err != nil {
		return nil, err
	}
	n := len(prog.Blocks)
	in := make([]*cache.State, n)
	for i := range in {
		in[i] = cache.Bottom()
	}
	in[prog.Entry] = cache.NewState(e.l.NumBlocks)
	changes := make([]int, n)
	queued := make([]bool, n)
	work := []ir.BlockID{prog.Entry}
	queued[prog.Entry] = true
	iterations := 0
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		iterations++
		out := in[b].Clone()
		for _, step := range e.steps.blocks[b].steps {
			e.dom.Transfer(out, step.acc)
		}
		for _, s := range e.wto.Succs[b] {
			if e.dom.Leq(out, in[s]) {
				continue
			}
			next := e.dom.Join(in[s], out)
			if changes[s] >= wideningThreshold {
				e.dom.Widen(in[s], next)
			}
			changes[s]++
			in[s] = next
			if !queued[s] {
				work = append(work, s)
				queued[s] = true
			}
		}
	}
	res := &Result{
		Prog:       prog,
		Layout:     e.l,
		Opts:       e.opts,
		WTO:        e.wto,
		In:         in,
		Access:     map[int]AccessInfo{},
		SpecAccess: map[int]cache.Classification{},
		Iterations: iterations,
		Branches:   prog.CondBranchCount(),
		domain:     e.dom,
		idx:        e.idx,
	}
	for _, b := range prog.Blocks {
		if in[b.ID].IsBottom {
			continue
		}
		st := in[b.ID].Clone()
		for _, step := range e.steps.blocks[b.ID].steps {
			res.Access[step.in.ID] = AccessInfo{
				Instr: step.in, Block: b.ID, Acc: step.acc, Class: e.dom.Classify(st, step.acc),
			}
			e.dom.Transfer(st, step.acc)
		}
	}
	return res, nil
}
