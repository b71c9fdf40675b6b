// Package machine is a concrete speculative CPU simulator and the
// repository's one executor of IR programs: it executes each instruction
// itself (what an op computes is ir.EvalBinop and ir.EvalUnop), over a
// set-associative LRU data cache, branch predictors, and checkpoint/rollback
// wrong-path execution. It substitutes for the paper's GEM5 + Alpha 21264
// testbed: it supplies ground-truth cache behaviour for the soundness
// property tests, the oracle, the fence verifier and the speculation-depth
// calibration, and the concrete miss counts of the motivating example
// (Fig. 2/3).
package machine

import (
	"specabsint/internal/layout"
)

// CacheSim is a concrete set-associative LRU cache.
type CacheSim struct {
	cfg  layout.CacheConfig
	sets [][]layout.BlockID // each set ordered youngest-first
}

// NewCacheSim creates an empty cache for blocks 0 to blocks-1. A set is a
// block id modulo NumSets, so those blocks map to the first
// min(NumSets, blocks) sets, and only those are allocated, however many
// sets the cache has.
func NewCacheSim(cfg layout.CacheConfig, blocks int) *CacheSim {
	return &CacheSim{cfg: cfg, sets: make([][]layout.BlockID, min(cfg.NumSets, blocks))}
}

// Access touches block b, returning whether it hit, and updates LRU state
// (the block becomes the youngest in its set; on a miss the oldest block is
// evicted if the set is full).
func (c *CacheSim) Access(b layout.BlockID) bool {
	set := int(b) % c.cfg.NumSets
	ways := c.sets[set]
	for i, w := range ways {
		if w == b {
			// Move to front.
			copy(ways[1:i+1], ways[:i])
			ways[0] = b
			return true
		}
	}
	if len(ways) < c.cfg.Assoc {
		ways = append(ways, 0)
	}
	copy(ways[1:], ways)
	ways[0] = b
	c.sets[set] = ways
	return false
}

// Contains reports whether b is currently cached, without touching LRU
// state.
func (c *CacheSim) Contains(b layout.BlockID) bool {
	set := int(b) % c.cfg.NumSets
	for _, w := range c.sets[set] {
		if w == b {
			return true
		}
	}
	return false
}

// AgeOf returns b's LRU age (1 = youngest) or assoc+1 when not cached.
func (c *CacheSim) AgeOf(b layout.BlockID) int {
	set := int(b) % c.cfg.NumSets
	for i, w := range c.sets[set] {
		if w == b {
			return i + 1
		}
	}
	return c.cfg.Assoc + 1
}

// Occupancy returns the number of blocks currently cached.
func (c *CacheSim) Occupancy() int {
	n := 0
	for _, s := range c.sets {
		n += len(s)
	}
	return n
}
