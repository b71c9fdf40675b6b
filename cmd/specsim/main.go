// Command specsim executes a MiniC program on the concrete speculative CPU
// simulator and reports cache and prediction statistics — the ground-truth
// side of the repository. Useful for comparing predictors and for watching
// wrong-path pollution concretely.
//
// Usage:
//
//	specsim [flags] program.c
//
// Example:
//
//	specsim -predictor adversarial -bm 200 -bh 20 -icache-lines 64 prog.c
package main

import (
	"flag"
	"fmt"
	"os"

	"specabsint/internal/layout"
	"specabsint/internal/machine"
	"specabsint/internal/runner"
)

func main() {
	var (
		lines       = flag.Int("lines", 512, "data cache lines")
		lineSize    = flag.Int("linesize", 64, "bytes per line")
		sets        = flag.Int("sets", 1, "cache sets (1 = fully associative)")
		bm          = flag.Int("bm", 200, "speculation depth after a missing condition")
		bh          = flag.Int("bh", 20, "speculation depth after a hitting condition")
		predictor   = flag.String("predictor", "2bit", "branch predictor: 2bit, gshare, taken, nottaken, adversarial")
		force       = flag.Bool("force-mispredict", false, "mispredict every branch (worst-case pollution)")
		icacheLines = flag.Int("icache-lines", 0, "simulate an instruction cache with this many lines (0 = off)")
		unroll      = flag.Int("unroll", 4096, "loop unrolling cap (0 or less: the lowering default)")
	)
	flag.Parse()
	cacheCfg, err := layout.Geometry(*lines, *lineSize, *sets)
	if err != nil {
		fmt.Fprintf(os.Stderr, "specsim: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: specsim [flags] program.c")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, _, err := runner.Compile(string(src), *unroll, false)
	if err != nil {
		fatal(err)
	}

	cfg := machine.DefaultConfig()
	cfg.Cache = cacheCfg
	cfg.DepthMiss = *bm
	cfg.DepthHit = *bh
	cfg.ForceMispredict = *force
	switch *predictor {
	case "2bit":
		cfg.Predictor = machine.NewTwoBit()
	case "gshare":
		cfg.Predictor = machine.NewGShare(12)
	case "taken":
		cfg.Predictor = machine.AlwaysTaken{}
	case "nottaken":
		cfg.Predictor = machine.NeverTaken{}
	case "adversarial":
		cfg.Predictor = machine.NewAdversarial()
	default:
		fatal(fmt.Errorf("unknown predictor %q", *predictor))
	}
	if *icacheLines > 0 {
		ic := layout.CacheConfig{LineSize: *lineSize, NumSets: 1, Assoc: *icacheLines}
		cfg.ICache = &ic
	}

	stats, err := machine.RunProgram(prog, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("result:        %d\n", stats.Ret)
	fmt.Printf("instructions:  %d architectural, %d wrong-path\n", stats.Instructions, stats.SpecInstructions)
	fmt.Printf("data cache:    %d hits, %d misses architectural; %d hits, %d misses wrong-path\n",
		stats.Hits, stats.Misses, stats.SpecHits, stats.SpecMisses)
	if cfg.ICache != nil {
		fmt.Printf("instr cache:   %d hits, %d misses architectural; %d hits, %d misses wrong-path\n",
			stats.IFetchHits, stats.IFetchMisses, stats.SpecIFetchHits, stats.SpecIFetchMisses)
	}
	fmt.Printf("branches:      %d executed, %d mispredicted, %d rollbacks\n",
		stats.Branches, stats.Mispredicts, stats.Rollbacks)
	fmt.Printf("cycles:        %d\n", stats.Cycles)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "specsim:", err)
	os.Exit(1)
}
