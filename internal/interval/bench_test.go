package interval

import (
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/cfg"
)

// BenchmarkIntervalAnalyze measures the interval pre-pass on three corpus
// kernels, compiled as the data-cache analysis compiles them.
func BenchmarkIntervalAnalyze(b *testing.B) {
	for _, name := range []string{"adpcm", "susan", "g72"} {
		k, ok := bench.ByName(name)
		if !ok {
			b.Fatalf("kernel %q not in corpus", name)
		}
		g := cfg.New(compileWithPasses(b, k.Code, 0, false))
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				Analyze(g)
			}
		})
	}
}
