package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"specabsint/internal/ir"
	"specabsint/internal/layout"
)

// benchLayout builds a layout over nBlocks line-sized scalars, mirroring
// propLayout but sized for benchmarking.
func benchLayout(b *testing.B, nBlocks, numSets, assoc int) *layout.Layout {
	b.Helper()
	bd := ir.NewBuilder("bench")
	for i := 0; i < nBlocks; i++ {
		bd.AddSymbol(fmt.Sprintf("s%d", i), 64, 1, false, nil)
	}
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	bd.Ret(ir.ConstVal(0))
	prog, err := bd.Finish(entry)
	if err != nil {
		b.Fatal(err)
	}
	l, err := layout.New(prog, layout.CacheConfig{LineSize: 64, NumSets: numSets, Assoc: assoc})
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// warmState drives a random access sequence through a fresh state so the
// benchmarks operate on realistic mid-fixpoint contents.
func warmState(d *Domain, nBlocks int, seed int64) *State {
	rng := rand.New(rand.NewSource(seed))
	st := NewState(d.L.NumBlocks)
	for i := 0; i < 4*nBlocks; i++ {
		d.Transfer(st, Access{First: layout.BlockID(rng.Intn(nBlocks)), Count: 1})
	}
	return st
}

// BenchmarkTransfer measures one exact-access transfer on the paper's
// fully-associative geometry and on a 64-set/8-way one. The universe-64
// shape has the paper corpus's proportions: far fewer blocks than ways.
func BenchmarkTransfer(b *testing.B) {
	shapes := []struct {
		name           string
		blocks, sets   int
		assoc, refined int // refined: 1 = NYoung rule on
	}{
		{"fullyassoc-512", 512, 1, 512, 1},
		{"fullyassoc-512-universe-64", 64, 1, 512, 1},
		{"64set-8way", 512, 64, 8, 1},
		{"fullyassoc-classic", 512, 1, 512, 0},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			l := benchLayout(b, sh.blocks, sh.sets, sh.assoc)
			d := &Domain{L: l, Refined: sh.refined == 1}
			st := warmState(d, sh.blocks, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Transfer(st, Access{First: layout.BlockID(i % sh.blocks), Count: 1})
			}
		})
	}
}

// BenchmarkJoinInto measures the in-place join on already-converged (equal)
// states — the steady-state case a fixpoint spends most of its time in.
func BenchmarkJoinInto(b *testing.B) {
	for _, sets := range []int{1, 64} {
		b.Run(fmt.Sprintf("%dset", sets), func(b *testing.B) {
			l := benchLayout(b, 512, sets, 512/sets)
			d := NewDomain(l)
			src := warmState(d, 512, 3)
			dst := src.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.JoinInto(dst, src)
			}
		})
	}
}
