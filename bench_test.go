package specabsint

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§7). Run with
//
//	go test -bench=. -benchmem
//
// The absolute times land in bench_output.txt / EXPERIMENTS.md; the paper's
// qualitative shape (speculative analysis slower but sound; JIT merging
// faster than merge-at-rollback; Table 7 leak split) is asserted by the unit
// tests in internal/experiments.

import (
	"context"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/core"
	"specabsint/internal/experiments"
	"specabsint/internal/ir"
	"specabsint/internal/machine"
	"specabsint/internal/runner"
	"specabsint/internal/sidechannel"
)

func compileBench(b *testing.B, code string) *ir.Program {
	b.Helper()
	prog, _, err := runner.Compile(code, 4096, false)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkFig2Motivation measures the motivating example end to end:
// speculative analysis of the Fig. 2 program on the paper's cache.
func BenchmarkFig2Motivation(b *testing.B) {
	prog := compileBench(b, bench.Fig2Program(-1))
	opts := core.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(prog, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Simulation measures the concrete speculative replay of the
// Fig. 3 traces.
func BenchmarkFig3Simulation(b *testing.B) {
	prog := compileBench(b, bench.Fig2Program(0))
	cfg := machine.DefaultConfig()
	cfg.ForceMispredict = true
	cfg.DepthMiss, cfg.DepthHit = 3, 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := machine.RunProgram(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTable5 runs one Table 5 cell: the named benchmark under the given
// analysis mode.
func benchTable5(b *testing.B, name string, speculative bool) {
	bm, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %s", name)
	}
	prog := compileBench(b, bm.Code)
	opts := core.DefaultOptions()
	opts.Speculative = speculative
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Analyze(prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.AccessCount() == 0 {
			b.Fatal("no accesses")
		}
	}
}

// BenchmarkTable5 regenerates Table 5: per-benchmark analysis times for the
// non-speculative baseline and the speculative analysis.
func BenchmarkTable5(b *testing.B) {
	for _, bm := range bench.WCETBenchmarks() {
		b.Run(bm.Name+"/nonspec", func(b *testing.B) { benchTable5(b, bm.Name, false) })
		b.Run(bm.Name+"/spec", func(b *testing.B) { benchTable5(b, bm.Name, true) })
	}
}

// BenchmarkTable6 regenerates Table 6: merge-at-rollback vs just-in-time
// merging on every WCET benchmark.
func BenchmarkTable6(b *testing.B) {
	for _, bm := range bench.WCETBenchmarks() {
		prog := compileBench(b, bm.Code)
		for _, strat := range []struct {
			name string
			s    core.Strategy
		}{
			{"rollback", core.StrategyMergeAtRollback},
			{"jit", core.StrategyJustInTime},
		} {
			b.Run(bm.Name+"/"+strat.name, func(b *testing.B) {
				opts := core.DefaultOptions()
				opts.Strategy = strat.s
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.Analyze(prog, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable7 regenerates Table 7's per-benchmark cost: side-channel
// detection on each crypto kernel with the Fig. 10 client at the cache-sized
// buffer (the paper's starting point of the sweep).
func BenchmarkTable7(b *testing.B) {
	for _, bm := range bench.CryptoBenchmarks() {
		prog := compileBench(b, bench.WithClient(bm, 32*1024))
		for _, mode := range []struct {
			name string
			spec bool
		}{{"nonspec", false}, {"spec", true}} {
			b.Run(bm.Name+"/"+mode.name, func(b *testing.B) {
				opts := core.DefaultOptions()
				opts.Speculative = mode.spec
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sidechannel.Analyze(prog, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDepthBounding measures the §6.2 ablation on the whole WCET suite:
// dynamic speculation-depth bounding on vs off.
func BenchmarkDepthBounding(b *testing.B) {
	for _, mode := range []struct {
		name    string
		bounded bool
	}{{"on", true}, {"off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			progs := make([]*ir.Program, 0, 10)
			for _, bm := range bench.WCETBenchmarks() {
				progs = append(progs, compileBench(b, bm.Code))
			}
			opts := core.DefaultOptions()
			opts.DynamicDepthBounding = mode.bounded
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range progs {
					if _, err := core.Analyze(p, opts); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkMergeStrategiesFig7 measures the Fig. 6/7 micro-benchmark: all
// three strategies on the diamond example.
func BenchmarkMergeStrategiesFig7(b *testing.B) {
	const fig7 = `
	int a; int b; int c; int d; int e;
	int main(reg int cond) {
		reg int t;
		t = a; t = b; t = c;
		if (cond > 0) { t = d; }
		else { t = e; }
		return t + a;
	}`
	prog := compileBench(b, fig7)
	for _, strat := range []struct {
		name string
		s    core.Strategy
	}{
		{"jit", core.StrategyJustInTime},
		{"rollback", core.StrategyMergeAtRollback},
		{"partition", core.StrategyPerRollbackBlock},
	} {
		b.Run(strat.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Strategy = strat.s
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(prog, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLeakThreshold measures the Table 7 buffer sweep for one leaky
// kernel (the guided search of §7.3).
func BenchmarkLeakThreshold(b *testing.B) {
	bm, _ := bench.ByName("hash")
	for i := 0; i < b.N; i++ {
		if _, found, err := experiments.FindLeakThreshold(context.Background(), bm, nil); err != nil || !found {
			b.Fatalf("found=%v err=%v", found, err)
		}
	}
}

// BenchmarkSimulatorThroughput measures the concrete simulator on the
// largest corpus kernel under adversarial prediction.
func BenchmarkSimulatorThroughput(b *testing.B) {
	bm, _ := bench.ByName("susan")
	prog := compileBench(b, bm.Code)
	cfg := machine.DefaultConfig()
	cfg.Predictor = machine.NewAdversarial()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := machine.RunProgram(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
