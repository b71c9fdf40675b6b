// Package absint provides the generic worklist-based abstract interpretation
// solver of the paper's Algorithm 1. It is parametric in the abstract
// domain; the speculative analysis (internal/core, Algorithms 2 and 3)
// extends the same fixpoint structure with virtual control flows.
package absint

import "specabsint/internal/ir"

// Domain abstracts the lattice operations Algorithm 1 needs.
type Domain[S any] interface {
	// Bottom is the state of unreached code (identity of Join).
	Bottom() S
	// Entry is the state at the program entry.
	Entry() S
	// TransferBlock pushes a state through all instructions of a block.
	TransferBlock(b *ir.Block, s S) S
	// Join returns the least upper bound.
	Join(a, b S) S
	// Leq reports a ⊑ b.
	Leq(a, b S) bool
	// Widen over-approximates next relative to prev to force convergence.
	Widen(prev, next S) S
}

// Result carries the fixpoint states.
type Result[S any] struct {
	// In[b] is the abstract state at the entry of block b.
	In []S
	// Iterations counts block transfers executed by the worklist loop.
	Iterations int
}

// Options tunes the solver.
type Options struct {
	// WideningThreshold is the number of times a block's in-state may change
	// before widening is applied; 0 disables widening.
	WideningThreshold int
}

// Solve runs Algorithm 1: a worklist fixpoint over prog's blocks, where
// block b flows into succs[b]. An analysis passes the effective successors
// (cfg.EffectiveWTO's Succs), so a branch the passes resolved has no dead
// edge for the state to flow along.
func Solve[S any](prog *ir.Program, succs [][]ir.BlockID, d Domain[S], opts Options) *Result[S] {
	n := len(prog.Blocks)
	res := &Result[S]{In: make([]S, n)}
	for i := range res.In {
		res.In[i] = d.Bottom()
	}
	res.In[prog.Entry] = d.Entry()

	changes := make([]int, n)
	work := []ir.BlockID{prog.Entry}
	inWork := make([]bool, n)
	inWork[prog.Entry] = true

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		res.Iterations++

		out := d.TransferBlock(prog.Block(b), res.In[b])
		for _, s := range succs[b] {
			if d.Leq(out, res.In[s]) {
				continue
			}
			next := d.Join(res.In[s], out)
			if opts.WideningThreshold > 0 && changes[s] >= opts.WideningThreshold {
				next = d.Widen(res.In[s], next)
			}
			changes[s]++
			res.In[s] = next
			if !inWork[s] {
				work = append(work, s)
				inWork[s] = true
			}
		}
	}
	return res
}
