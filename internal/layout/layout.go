// Package layout assigns memory addresses to program symbols and maps them
// onto cache blocks and cache sets. The default placement mirrors the
// paper's setup: every symbol starts on its own cache-line boundary, so
// distinct scalars occupy distinct lines and arrays span consecutive lines.
package layout

import (
	"fmt"

	"specabsint/internal/ir"
)

// CacheConfig describes the modeled data cache.
type CacheConfig struct {
	LineSize int // bytes per line
	NumSets  int // 1 for a fully-associative cache
	Assoc    int // ways per set; lines total = NumSets * Assoc
}

// PaperConfig returns the configuration used throughout the paper's
// experiments: 512 lines of 64 bytes, fully associative, LRU.
func PaperConfig() CacheConfig {
	return CacheConfig{LineSize: 64, NumSets: 1, Assoc: 512}
}

// Lines returns the total number of cache lines.
func (c CacheConfig) Lines() int { return c.NumSets * c.Assoc }

// SizeBytes returns the total cache capacity.
func (c CacheConfig) SizeBytes() int { return c.Lines() * c.LineSize }

// maxAssoc is the largest associativity the cache domain can represent: it
// keeps ages in 16 bits, and the persistence domain reserves the largest
// 16-bit value for a block that may have been evicted.
const maxAssoc = 1<<16 - 2

// Validate checks the configuration for plausibility.
func (c CacheConfig) Validate() error {
	if c.LineSize <= 0 || c.NumSets <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("layout: cache dimensions must be positive, got %+v", c)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("layout: line size %d is not a power of two", c.LineSize)
	}
	if c.Assoc > maxAssoc {
		return fmt.Errorf("layout: associativity %d exceeds %d, the most 16-bit cache ages can track", c.Assoc, maxAssoc)
	}
	return nil
}

// Geometry builds the configuration of a cache with the given total line
// count, line size and set count, as the command-line tools take them. It
// rejects a set count that is not positive or does not divide the lines
// evenly, instead of dividing by zero or silently dropping lines, and then
// applies Validate.
func Geometry(lines, lineSize, sets int) (CacheConfig, error) {
	if sets <= 0 {
		return CacheConfig{}, fmt.Errorf("layout: cache set count must be positive, got %d", sets)
	}
	if lines%sets != 0 {
		return CacheConfig{}, fmt.Errorf("layout: %d cache lines do not split evenly into %d sets", lines, sets)
	}
	c := CacheConfig{LineSize: lineSize, NumSets: sets, Assoc: lines / sets}
	return c, c.Validate()
}

// String formats the configuration compactly.
func (c CacheConfig) String() string {
	shape := "fully-assoc"
	if c.NumSets > 1 {
		shape = fmt.Sprintf("%d-set/%d-way", c.NumSets, c.Assoc)
	}
	return fmt.Sprintf("%d lines x %dB (%s)", c.Lines(), c.LineSize, shape)
}

// BlockID identifies a memory block (an address range of one cache line).
type BlockID int

// Layout holds the address assignment for a program's symbols.
type Layout struct {
	Config CacheConfig
	Prog   *ir.Program
	// Base[sym] is the symbol's starting byte address.
	Base []int64
	// NumBlocks is one past the largest block id in use.
	NumBlocks int
}

// New lays out every symbol of prog on line-size boundaries, in declaration
// order starting at address 0.
func New(prog *ir.Program, cfg CacheConfig) (*Layout, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &Layout{Config: cfg, Prog: prog, Base: make([]int64, len(prog.Symbols))}
	addr := int64(0)
	line := int64(cfg.LineSize)
	for _, s := range prog.Symbols {
		// Align to a line boundary so each symbol begins a fresh line.
		addr = (addr + line - 1) / line * line
		l.Base[s.ID] = addr
		addr += int64(s.SizeBytes())
	}
	end := (addr + line - 1) / line
	l.NumBlocks = int(end)
	if l.NumBlocks == 0 {
		l.NumBlocks = 1
	}
	return l, nil
}

// BlockOfAddr returns the block containing the byte address.
func (l *Layout) BlockOfAddr(addr int64) BlockID {
	return BlockID(addr / int64(l.Config.LineSize))
}

// AddrOfElem returns the byte address of sym[elem].
func (l *Layout) AddrOfElem(sym ir.SymbolID, elem int64) int64 {
	s := l.Prog.Symbol(sym)
	return l.Base[sym] + elem*int64(s.ElemSize)
}

// BlockOfElem returns the block holding sym[elem].
func (l *Layout) BlockOfElem(sym ir.SymbolID, elem int64) BlockID {
	return l.BlockOfAddr(l.AddrOfElem(sym, elem))
}

// BlockRange returns the first block of sym and the number of blocks the
// symbol spans.
func (l *Layout) BlockRange(sym ir.SymbolID) (BlockID, int) {
	s := l.Prog.Symbol(sym)
	first := l.BlockOfAddr(l.Base[sym])
	last := l.BlockOfAddr(l.Base[sym] + int64(s.SizeBytes()) - 1)
	return first, int(last-first) + 1
}

// BlockRangeOfElems returns the blocks touched by sym[lo..hi] (inclusive
// element bounds, clamped to the symbol).
func (l *Layout) BlockRangeOfElems(sym ir.SymbolID, lo, hi int64) (BlockID, int) {
	s := l.Prog.Symbol(sym)
	if lo < 0 {
		lo = 0
	}
	if hi >= int64(s.Len) {
		hi = int64(s.Len) - 1
	}
	if hi < lo {
		return l.BlockOfElem(sym, 0), 1
	}
	first := l.BlockOfElem(sym, lo)
	last := l.BlockOfElem(sym, hi)
	return first, int(last-first) + 1
}

// SetOf returns the cache set a block maps to.
func (l *Layout) SetOf(b BlockID) int { return int(b) % l.Config.NumSets }

// BlockName renders a block id as symbol[line-offset] for diagnostics,
// matching the paper's decis_lev[1*] style.
func (l *Layout) BlockName(b BlockID) string {
	addr := int64(b) * int64(l.Config.LineSize)
	for _, s := range l.Prog.Symbols {
		base := l.Base[s.ID]
		if addr >= base && addr < base+int64(s.SizeBytes()) {
			first, n := l.BlockRange(s.ID)
			if n == 1 {
				return s.Name
			}
			return fmt.Sprintf("%s[%d*]", s.Name, int(b-first)+1)
		}
	}
	return fmt.Sprintf("block%d", b)
}

// AddrToElem maps a byte address back to the symbol and element containing
// it. ok is false when the address falls outside every symbol's storage
// (padding between line-aligned symbols, or beyond the address space).
// Wrong-path (speculative) out-of-bounds accesses use this to model real
// hardware, which reads whatever memory sits at the computed address
// instead of faulting — the Spectre v1 ingredient.
func (l *Layout) AddrToElem(addr int64) (sym ir.SymbolID, elem int64, ok bool) {
	for _, s := range l.Prog.Symbols {
		base := l.Base[s.ID]
		if addr >= base && addr < base+int64(s.SizeBytes()) {
			return s.ID, (addr - base) / int64(s.ElemSize), true
		}
	}
	return 0, 0, false
}

// AddressSpaceEnd returns one past the last mapped byte address.
func (l *Layout) AddressSpaceEnd() int64 {
	return int64(l.NumBlocks) * int64(l.Config.LineSize)
}

// SymbolOfBlock returns the symbol whose storage includes block b, or nil.
func (l *Layout) SymbolOfBlock(b BlockID) *ir.Symbol {
	addr := int64(b) * int64(l.Config.LineSize)
	for _, s := range l.Prog.Symbols {
		base := l.Base[s.ID]
		if addr >= base && addr < base+int64(s.SizeBytes()) {
			return s
		}
	}
	return nil
}
