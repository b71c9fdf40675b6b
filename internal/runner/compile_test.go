package runner

import (
	"runtime"
	"testing"

	"specabsint/internal/bench"
)

// compileKernels are the programs BenchmarkCompile compiles: Fig. 2, two
// side-channel kernels in the 4 KiB client (des unrolls into six blocks of
// 2,559 instructions; chacha20 has the most cross-block registers, 326), and
// three WCET kernels that keep loops and branches (susan is the corpus's
// largest).
var compileKernels = []string{"fig2", "des", "chacha20", "adpcm", "susan", "stc"}

// kernelSource returns a corpus program's source as the paper corpus
// compiles it: side-channel kernels wrapped in the Fig. 10 client.
func kernelSource(tb testing.TB, name string) string {
	tb.Helper()
	src, err := bench.CorpusSource(name)
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

// BenchmarkCompile measures Compile with passes on, from source to verified
// IR: parse, lower, the pass pipeline and both verifier runs.
func BenchmarkCompile(b *testing.B) {
	for _, name := range compileKernels {
		src := kernelSource(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, _, err := Compile(src, 0, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCompileAllocationBound guards compiling against allocating per
// instruction again: susan, the corpus's largest kernel (24,367
// instructions), must compile with passes on in under 13 MB of allocations.
func TestCompileAllocationBound(t *testing.T) {
	if raceDetectorOn {
		t.Skip("the race detector changes allocation behaviour")
	}
	src := kernelSource(t, "susan")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := Compile(src, 0, true); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limitMB = 13
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	if mb >= limitMB {
		t.Fatalf("compiling susan allocated %.1f MB, want < %d MB", mb, limitMB)
	}
	t.Logf("compiling susan allocated %.1f MB", mb)
}
