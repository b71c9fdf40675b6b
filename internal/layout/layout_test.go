package layout

import (
	"testing"

	"specabsint/internal/ir"
)

func progWithSymbols(t *testing.T) *ir.Program {
	t.Helper()
	bd := ir.NewBuilder("p")
	bd.AddSymbol("x", 4, 1, false, nil)     // scalar int
	bd.AddSymbol("arr", 4, 64, false, nil)  // 256 bytes = 4 lines of 64B
	bd.AddSymbol("c", 1, 1, false, nil)     // scalar char
	bd.AddSymbol("big", 1, 130, false, nil) // 130 bytes = 3 lines (spans boundary)
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	bd.Ret(ir.ConstVal(0))
	return bd.Finish(entry)
}

func TestPaperConfig(t *testing.T) {
	c := PaperConfig()
	if c.Lines() != 512 || c.SizeBytes() != 32*1024 {
		t.Errorf("paper config: %d lines, %d bytes", c.Lines(), c.SizeBytes())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{LineSize: 0, NumSets: 1, Assoc: 1},
		{LineSize: 64, NumSets: 0, Assoc: 1},
		{LineSize: 63, NumSets: 1, Assoc: 1},
		// Ages are 16-bit and the persistence domain's top is 65535; at
		// 65540 ways a 16-bit associativity wraps to 4.
		{LineSize: 64, NumSets: 1, Assoc: 65535},
		{LineSize: 64, NumSets: 1, Assoc: 65540},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	if c := (CacheConfig{LineSize: 64, NumSets: 1, Assoc: 65534}); c.Validate() != nil {
		t.Errorf("config %+v should be valid: %v", c, c.Validate())
	}
}

func TestLineAlignedLayout(t *testing.T) {
	prog := progWithSymbols(t)
	l, err := New(prog, CacheConfig{LineSize: 64, NumSets: 1, Assoc: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range prog.Symbols {
		if l.Base[s.ID]%64 != 0 {
			t.Errorf("symbol %s base %d not line-aligned", s.Name, l.Base[s.ID])
		}
	}
	// Distinct symbols must not share blocks.
	seen := map[BlockID]string{}
	for _, s := range prog.Symbols {
		first, n := l.BlockRange(s.ID)
		for i := 0; i < n; i++ {
			b := first + BlockID(i)
			if other, dup := seen[b]; dup {
				t.Errorf("block %d shared by %s and %s", b, other, s.Name)
			}
			seen[b] = s.Name
		}
	}
}

func TestBlockRanges(t *testing.T) {
	prog := progWithSymbols(t)
	l, err := New(prog, CacheConfig{LineSize: 64, NumSets: 1, Assoc: 8})
	if err != nil {
		t.Fatal(err)
	}
	arr := prog.SymbolByName("arr")
	if _, n := l.BlockRange(arr.ID); n != 4 {
		t.Errorf("arr spans %d blocks, want 4", n)
	}
	big := prog.SymbolByName("big")
	if _, n := l.BlockRange(big.ID); n != 3 {
		t.Errorf("big spans %d blocks, want 3", n)
	}
	x := prog.SymbolByName("x")
	if _, n := l.BlockRange(x.ID); n != 1 {
		t.Errorf("x spans %d blocks, want 1", n)
	}
}

func TestBlockOfElem(t *testing.T) {
	prog := progWithSymbols(t)
	l, err := New(prog, CacheConfig{LineSize: 64, NumSets: 1, Assoc: 8})
	if err != nil {
		t.Fatal(err)
	}
	arr := prog.SymbolByName("arr")
	first, _ := l.BlockRange(arr.ID)
	// Elements 0..15 are in the first line (4B each, 64B lines).
	if got := l.BlockOfElem(arr.ID, 0); got != first {
		t.Errorf("elem 0 in block %d, want %d", got, first)
	}
	if got := l.BlockOfElem(arr.ID, 15); got != first {
		t.Errorf("elem 15 in block %d, want %d", got, first)
	}
	if got := l.BlockOfElem(arr.ID, 16); got != first+1 {
		t.Errorf("elem 16 in block %d, want %d", got, first+1)
	}
}

func TestBlockRangeOfElems(t *testing.T) {
	prog := progWithSymbols(t)
	l, err := New(prog, CacheConfig{LineSize: 64, NumSets: 1, Assoc: 8})
	if err != nil {
		t.Fatal(err)
	}
	arr := prog.SymbolByName("arr")
	first, _ := l.BlockRange(arr.ID)
	b, n := l.BlockRangeOfElems(arr.ID, 0, 15)
	if b != first || n != 1 {
		t.Errorf("elems 0..15 -> (%d,%d), want (%d,1)", b, n, first)
	}
	b, n = l.BlockRangeOfElems(arr.ID, 10, 40)
	if b != first || n != 3 {
		t.Errorf("elems 10..40 -> (%d,%d), want (%d,3)", b, n, first)
	}
	// Clamping: out-of-bounds interval covers the whole symbol.
	b, n = l.BlockRangeOfElems(arr.ID, -5, 1000)
	if b != first || n != 4 {
		t.Errorf("clamped range -> (%d,%d), want (%d,4)", b, n, first)
	}
}

func TestSetMapping(t *testing.T) {
	prog := progWithSymbols(t)
	l, err := New(prog, CacheConfig{LineSize: 64, NumSets: 4, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	arr := prog.SymbolByName("arr")
	first, n := l.BlockRange(arr.ID)
	sets := map[int]bool{}
	for i := 0; i < n; i++ {
		sets[l.SetOf(first+BlockID(i))] = true
	}
	if len(sets) != 4 {
		t.Errorf("4 consecutive blocks map to %d sets, want 4", len(sets))
	}
}

func TestBlockName(t *testing.T) {
	prog := progWithSymbols(t)
	l, err := New(prog, CacheConfig{LineSize: 64, NumSets: 1, Assoc: 8})
	if err != nil {
		t.Fatal(err)
	}
	x := prog.SymbolByName("x")
	fx, _ := l.BlockRange(x.ID)
	if got := l.BlockName(fx); got != "x" {
		t.Errorf("scalar block name = %q, want x", got)
	}
	arr := prog.SymbolByName("arr")
	fa, _ := l.BlockRange(arr.ID)
	if got := l.BlockName(fa + 1); got != "arr[2*]" {
		t.Errorf("array block name = %q, want arr[2*]", got)
	}
	if s := l.SymbolOfBlock(fa); s == nil || s.Name != "arr" {
		t.Errorf("SymbolOfBlock = %v", s)
	}
}
