// Command specmitigate runs the automatic Spectre fence synthesis on a MiniC
// source file: it analyzes the program, searches for a low-cost fence set
// that makes the speculation-aware analysis report zero speculation-induced
// leaks, verifies the repaired program, and reports the placements with
// their WCET cost.
//
// Usage:
//
//	specmitigate [flags] program.c
//	specmitigate [flags] -corpus name
//
// Exit codes: 0 — repair complete (zero residual leaks and gadgets);
// 3 — residual leaks remain (they exist under the classic non-speculative
// analysis too and are not fence-fixable); 1 — error; 2 — usage.
//
// Examples:
//
//	specmitigate -corpus fig2
//	specmitigate -json -corpus ocb
//	specmitigate -dump-ir examples/fig2.c
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"specabsint"
	"specabsint/internal/bench"
	"specabsint/internal/layout"
	"specabsint/wire"
)

func main() {
	var (
		lines    = flag.Int("lines", 512, "total cache lines")
		lineSize = flag.Int("linesize", 64, "bytes per cache line")
		sets     = flag.Int("sets", 1, "cache sets (1 = fully associative)")
		bm       = flag.Int("bm", 200, "speculation depth after a missing condition (instructions)")
		bh       = flag.Int("bh", 20, "speculation depth after a hitting condition (instructions)")
		verify   = flag.Bool("verify", true, "differentially verify the fenced program against the concrete speculative machine")
		asJSON   = flag.Bool("json", false, "emit the mitigation report as its canonical wire document")
		dumpIR   = flag.Bool("dump-ir", false, "print the fenced program's IR after the report")
		timeout  = flag.Duration("timeout", 0, "abort the synthesis after this long (0 = no limit)")
		corpus   = flag.String("corpus", "", "mitigate a built-in program instead of a file: fig2 or a benchmark name")
	)
	flag.Parse()
	cacheCfg, err := layout.Geometry(*lines, *lineSize, *sets)
	if err != nil {
		fmt.Fprintf(os.Stderr, "specmitigate: %v\n", err)
		flag.Usage()
		os.Exit(2)
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
		fmt.Fprintln(os.Stderr, "usage: specmitigate [flags] program.c | specmitigate [flags] -corpus name")
		flag.Usage()
		os.Exit(2)
	}

	opts := []specabsint.Option{
		specabsint.WithCache(cacheCfg),
		specabsint.WithDepths(*bm, *bh),
		specabsint.WithMitigateVerify(*verify),
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	prog, err := specabsint.CompileOpts(src, opts...)
	if err != nil {
		var perr *specabsint.ParseError
		if errors.As(err, &perr) {
			fmt.Fprintf(os.Stderr, "specmitigate: %s:%d:%d: %s\n", srcName, perr.Line(), perr.Col(), perr.Msg)
			os.Exit(1)
		}
		fatal(err)
	}
	rep, err := specabsint.Mitigate(ctx, prog, opts...)
	if err != nil {
		fatal(err)
	}

	if *asJSON {
		out, err := wire.EncodeMitigation(rep)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
	} else {
		printReport(rep)
	}
	if *dumpIR {
		fmt.Println()
		fmt.Println(rep.Program.IR())
	}
	if rep.ResidualLeaks > 0 || rep.ResidualGadgets > 0 {
		os.Exit(3)
	}
}

func printReport(rep *specabsint.MitigationReport) {
	fmt.Printf("baseline: %d leak(s), %d spectre gadget(s)\n", rep.BaselineLeaks, rep.BaselineGadgets)
	if len(rep.Fences) == 0 {
		fmt.Println("fences:   none needed")
	} else {
		fmt.Printf("fences:   %d synthesized (%d candidate sites, %d analyses)\n",
			len(rep.Fences), rep.Candidates, rep.Analyses)
		for _, f := range rep.Fences {
			fmt.Printf("  %s\n", f)
		}
	}
	fmt.Printf("residual: %d leak(s), %d gadget(s)", rep.ResidualLeaks, rep.ResidualGadgets)
	if rep.ResidualLeaks > 0 {
		fmt.Print("  [not speculation-induced: the classic analysis reports them too]")
	}
	fmt.Println()
	if rep.WCETBounded {
		fmt.Printf("wcet:     %d -> %d cycles (%+.2f%%)\n", rep.BaselineWCET, rep.MitigatedWCET, rep.OverheadPercent)
	} else {
		fmt.Println("wcet:     unbounded (cyclic CFG)")
	}
	switch {
	case rep.VerifySkipped:
		fmt.Println("verify:   skipped (no secrets, secret-dependent control flow, or disabled)")
	case rep.Verified:
		fmt.Printf("verify:   OK — %d concrete replays, no unreported secret-varying trace pair\n", rep.Traces)
	default:
		fmt.Printf("verify:   FAILED — a secret-varying trace pair survives the fence set (%d replays)\n", rep.Traces)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "specmitigate:", err)
	os.Exit(1)
}
