// Command specanalyze runs the speculation-aware cache analysis on a MiniC
// source file and reports per-access hit/miss verdicts, the timing estimate,
// and any cache side channels.
//
// Usage:
//
//	specanalyze [flags] program.c
//	specanalyze [flags] -corpus name
//
// Examples:
//
//	specanalyze -lines 512 -linesize 64 -bm 200 -bh 20 examples/fig2.c
//	specanalyze -corpus fig2 -stats=json -stats-notimes
//	specanalyze -corpus fig2 -mitigate
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"specabsint"
	"specabsint/internal/bench"
	"specabsint/internal/layout"
	"specabsint/internal/obs"
	"specabsint/wire"
)

func main() {
	var (
		lines      = flag.Int("lines", 512, "total cache lines")
		lineSize   = flag.Int("linesize", 64, "bytes per cache line")
		sets       = flag.Int("sets", 1, "cache sets (1 = fully associative)")
		bm         = flag.Int("bm", 200, "speculation depth after a missing condition (instructions)")
		bh         = flag.Int("bh", 20, "speculation depth after a hitting condition (instructions)")
		nonspec    = flag.Bool("nonspec", false, "run the classic non-speculative analysis instead")
		passesFlag = flag.String("passes", "on", "analysis-preserving pass pipeline (SCCP, copy propagation, branch resolution, DCE): on or off")
		strategy   = flag.String("strategy", "jit", "merge strategy: jit, rollback, partition")
		timeout    = flag.Duration("timeout", 0, "abort the analysis after this long (0 = no limit)")
		sim        = flag.Bool("sim", false, "also run the concrete speculative simulator")
		mitigateF  = flag.Bool("mitigate", false, "synthesize a fence set repairing the reported leaks and print the mitigation summary (text mode only)")
		verbose    = flag.Bool("v", false, "print every access verdict")
		asJSON     = flag.Bool("json", false, "emit the full report as JSON")
		statsMode  = flag.String("stats", "", "print only the analysis stats document: json or text")
		statsNoT   = flag.Bool("stats-notimes", false, "zero wall-clock phase timings in -stats output (deterministic, diffable)")
		statsCheck = flag.Bool("stats-validate", false, "validate -stats=json output against the built-in schema before printing")
		corpus     = flag.String("corpus", "", "analyze a built-in program instead of a file: fig2 or a benchmark name")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	cacheCfg, err := layout.Geometry(*lines, *lineSize, *sets)
	if err != nil {
		fmt.Fprintf(os.Stderr, "specanalyze: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if *statsMode != "" && *statsMode != "json" && *statsMode != "text" {
		fatal(fmt.Errorf("-stats must be json or text, got %q", *statsMode))
	}
	var src, srcName string
	switch {
	case *corpus != "" && flag.NArg() == 0:
		srcName = *corpus
		text, err := bench.CorpusSource(*corpus)
		if err != nil {
			fatal(err)
		}
		src = text
	case *corpus == "" && flag.NArg() == 1:
		srcName = flag.Arg(0)
		data, err := os.ReadFile(srcName)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: specanalyze [flags] program.c | specanalyze [flags] -corpus name")
		flag.Usage()
		os.Exit(2)
	}
	if err := startProfiles(*cpuProfile, *memProfile); err != nil {
		fatal(err)
	}
	defer stopProfiles()

	strat, err := parseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	runPasses, err := parsePasses(*passesFlag)
	if err != nil {
		fatal(err)
	}
	opts := []specabsint.Option{
		specabsint.WithCache(cacheCfg),
		specabsint.WithDepths(*bm, *bh),
		specabsint.WithSpeculation(!*nonspec),
		specabsint.WithStrategy(strat),
		specabsint.WithPasses(runPasses),
		specabsint.WithStats(*statsMode != ""),
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	prog, err := specabsint.CompileOpts(src, opts...)
	if err != nil {
		// Surface the exact source position for front-end diagnostics.
		var perr *specabsint.ParseError
		if errors.As(err, &perr) {
			fmt.Fprintf(os.Stderr, "specanalyze: %s:%d:%d: %s\n",
				srcName, perr.Line(), perr.Col(), perr.Msg)
			os.Exit(1)
		}
		fatal(err)
	}
	rep, err := specabsint.AnalyzeContext(ctx, prog, opts...)
	if err != nil {
		if errors.Is(err, specabsint.ErrCanceled) {
			stopProfiles()
			fmt.Fprintf(os.Stderr, "specanalyze: analysis exceeded %v\n", *timeout)
			os.Exit(130)
		}
		fatal(err)
	}
	cfg := specabsint.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if *statsMode != "" {
		if err := printStats(rep.Stats, *statsMode, *statsNoT, *statsCheck); err != nil {
			fatal(err)
		}
		return
	}
	if *asJSON {
		// The canonical wire encoding — the same bytes specserve returns in
		// AnalyzeResponse.Report for this program and configuration.
		out, err := wire.EncodeReport(rep)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
		return
	}

	mode := "speculative"
	if *nonspec {
		mode = "non-speculative"
	}
	fmt.Printf("analysis: %s, cache %v, b_m=%d b_h=%d, strategy %v\n",
		mode, cfg.Cache, cfg.DepthMiss, cfg.DepthHit, cfg.Strategy)
	fmt.Printf("accesses: %d   misses (#Miss): %d   wrong-path misses (#SpMiss): %d\n",
		len(rep.Accesses), rep.Misses, rep.SpecMisses)
	fmt.Printf("branches: %d   fixpoint iterations: %d\n", rep.Branches, rep.Iterations)
	fmt.Printf("timing:   %s\n", rep.WCET)
	if rep.LeakDetected {
		fmt.Printf("side channels: %d leak(s) detected\n", len(rep.Leaks))
		for _, l := range rep.Leaks {
			fmt.Printf("  LEAK %s\n", l)
		}
	} else {
		fmt.Println("side channels: none detected")
	}
	if len(rep.SpectreGadgets) > 0 {
		fmt.Printf("spectre gadgets: %d speculative transmission gadget(s)\n", len(rep.SpectreGadgets))
		for _, g := range rep.SpectreGadgets {
			fmt.Printf("  GADGET %s\n", g)
		}
	} else {
		fmt.Println("spectre gadgets: none detected")
	}
	if *verbose {
		fmt.Println("\nper-access verdicts:")
		for _, a := range rep.Accesses {
			kind := "load "
			if a.Store {
				kind = "store"
			}
			spec := ""
			if a.SpecReached {
				spec = fmt.Sprintf("  [wrong-path: %v]", a.SpecClass)
			}
			fmt.Printf("  line %4d  %s %-16s %v%s\n", a.Line, kind, a.Symbol, a.Class, spec)
		}
	}
	if *sim {
		stats, err := specabsint.Simulate(prog, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nconcrete simulation (all branches mispredicted): %v\n", stats)
	}
	if *mitigateF {
		mrep, err := specabsint.Mitigate(ctx, prog, opts...)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nmitigation (fence synthesis):")
		if len(mrep.Fences) == 0 {
			fmt.Println("  no fences needed")
		} else {
			fmt.Printf("  %d fence(s), %d analyses:\n", len(mrep.Fences), mrep.Analyses)
			for _, f := range mrep.Fences {
				fmt.Printf("    %s\n", f)
			}
		}
		fmt.Printf("  residual: %d leak(s), %d gadget(s)\n", mrep.ResidualLeaks, mrep.ResidualGadgets)
		if mrep.WCETBounded {
			fmt.Printf("  wcet: %d -> %d cycles (%+.2f%%)\n", mrep.BaselineWCET, mrep.MitigatedWCET, mrep.OverheadPercent)
		}
		// The full document — placements, verification verdict, wire JSON —
		// is specmitigate's job; this is the triage view.
	}
}

// printStats renders the stats document, the only output in -stats mode.
func printStats(st *specabsint.Stats, mode string, noTimes, validate bool) error {
	if st == nil {
		return fmt.Errorf("stats requested but not collected")
	}
	if noTimes {
		st.ZeroTimes()
	}
	if mode == "text" {
		st.WriteText(os.Stdout)
		return nil
	}
	out, err := st.JSON()
	if err != nil {
		return err
	}
	if validate {
		if err := obs.ValidateStats(out); err != nil {
			return fmt.Errorf("stats failed schema validation: %w", err)
		}
	}
	_, err = os.Stdout.Write(out)
	return err
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "specanalyze:", err)
	os.Exit(1)
}

// profiles holds the pprof teardown state; stopProfiles is safe to call
// multiple times and on the error-exit paths.
var profiles struct {
	cpuFile *os.File
	memPath string
	stopped bool
}

func startProfiles(cpuPath, memPath string) error {
	profiles.memPath = memPath
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		profiles.cpuFile = f
	}
	return nil
}

func stopProfiles() {
	if profiles.stopped {
		return
	}
	profiles.stopped = true
	if profiles.cpuFile != nil {
		pprof.StopCPUProfile()
		profiles.cpuFile.Close()
	}
	if profiles.memPath != "" {
		f, err := os.Create(profiles.memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "specanalyze: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // flush recently freed objects out of the live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "specanalyze: memprofile:", err)
		}
	}
}
