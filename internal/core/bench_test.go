package core

import (
	"fmt"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/ir"
)

// fixpointKernels names the corpus kernels the fixpoint benchmarks run on,
// chosen to span analysis cost: on a 2-vCPU x86-64 box vga converges in
// 2–3 ms, g72 in about 40 ms and adpcm in about 0.1 s.
var fixpointKernels = []struct {
	size string
	name string
}{
	{"small", "vga"},
	{"medium", "g72"},
	{"large", "adpcm"},
}

func compileKernel(tb testing.TB, name string) *ir.Program {
	tb.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		tb.Fatalf("kernel %q not in corpus", name)
	}
	prog, err := bench.Compile(b.Code, 0)
	if err != nil {
		tb.Fatalf("compile %s: %v", name, err)
	}
	return prog
}

// BenchmarkFixpoint measures the full speculative fixpoint (paper default
// options) per corpus kernel.
func BenchmarkFixpoint(b *testing.B) {
	for _, k := range fixpointKernels {
		prog := compileKernel(b, k.name)
		b.Run(fmt.Sprintf("%s-%s", k.size, k.name), func(b *testing.B) {
			opts := DefaultOptions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(prog, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFixpointSetAssoc runs the medium kernel on a 64-set/8-way
// geometry, where an access ages only the blocks of its own set instead of
// the whole block universe, as on the fully-associative paper cache.
func BenchmarkFixpointSetAssoc(b *testing.B) {
	prog := compileKernel(b, "g72")
	opts := DefaultOptions()
	opts.Cache = setAssocConfig
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(prog, opts); err != nil {
			b.Fatal(err)
		}
	}
}
