package cache

// PoolStats counts a pool's traffic: Gets - News is the number of state
// allocations the pool avoided.
type PoolStats struct {
	Gets int // states handed out
	News int // states freshly allocated (free list was empty)
	Puts int // states returned for reuse
}

// Reused returns how many Get calls were served without allocating.
func (s PoolStats) Reused() int { return s.Gets - s.News }

// Pool is a free list of equally-sized State buffers for one fixpoint
// engine. It is deliberately not safe for concurrent use: each engine owns
// its pool, and an engine runs on one goroutine.
//
// Ownership rules (see DESIGN.md): a state obtained from Get carries
// arbitrary stale contents and must be initialized with CopyFrom or
// SetBottom before use; Put hands the buffers back, so the caller must not
// retain the pointer afterwards. Domain joins copy out of their src
// argument and never retain it, which is what makes pooling the engine's
// transfer scratch safe.
type Pool struct {
	numBlocks int
	free      []*State
	stats     PoolStats
}

// NewPool creates a pool of states sized for numBlocks blocks.
func NewPool(numBlocks int) *Pool { return &Pool{numBlocks: numBlocks} }

// Get returns a state with allocated buffers and unspecified contents.
func (p *Pool) Get() *State {
	p.stats.Gets++
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return s
	}
	p.stats.News++
	return NewState(p.numBlocks)
}

// Put returns s to the free list. s must not be used afterwards.
func (p *Pool) Put(s *State) {
	if s == nil {
		return
	}
	p.stats.Puts++
	p.free = append(p.free, s)
}

// Stats returns the pool's traffic counters.
func (p *Pool) Stats() PoolStats { return p.stats }
