// Command vcfgdump prints a MiniC program's lowered IR, its CFG in Graphviz
// DOT format, and the speculative-flow summary (colors, vn_stop placements)
// that the analysis derives — the paper's virtual control flow made visible.
//
// Usage:
//
//	vcfgdump [-ir] [-dot] [-colors] [-verify] [-passes] [-mitigate] program.c
//
// -passes runs the analysis-preserving pass pipeline and prints the
// effective block and speculative-lane counts before and after each pass; -verify re-runs the structural IR verifier on the final program
// and prints its verdict (non-zero exit on diagnostics); -mitigate runs the
// fence synthesizer and prints the per-function mitigation summary — the
// placements, the leak counts before and after, and the fenced blocks.
// Fence instructions, whether written in the source or synthesized, render
// as `fence` lines in both the -ir listing and the DOT node labels.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"specabsint/internal/cfg"
	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/irverify"
	"specabsint/internal/lower"
	"specabsint/internal/mitigate"
	"specabsint/internal/passes"
	"specabsint/internal/source"
)

func main() {
	// All failures funnel through run's error — including output errors,
	// which fmt.Println would silently drop, letting a failed dump exit 0.
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vcfgdump:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("vcfgdump", flag.ExitOnError)
	var (
		showIR     = fs.Bool("ir", false, "print the lowered IR")
		showDOT    = fs.Bool("dot", true, "print the CFG in DOT format")
		showVCFG   = fs.Bool("vcfg", false, "print the CFG with the virtual (speculative) control flows as dashed edges")
		showColors = fs.Bool("colors", false, "print the speculative flows (colors)")
		maxUnroll  = fs.Int("unroll", 64, "loop unrolling cap (small keeps the graph readable)")
		runPasses  = fs.Bool("passes", false, "run the pass pipeline, printing each pass's before/after block and lane counts")
		verify     = fs.Bool("verify", false, "re-run the structural IR verifier on the final program and print the verdict")
		mitigateF  = fs.Bool("mitigate", false, "run the fence synthesizer and print the per-function mitigation summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vcfgdump [flags] program.c")
		fs.Usage()
		os.Exit(2)
	}
	out := bufio.NewWriter(stdout)

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	ast, err := source.Parse(string(src))
	if err != nil {
		return err
	}
	prog, err := lower.Lower(ast, lower.Options{MaxUnroll: *maxUnroll})
	if err != nil {
		return err
	}

	if *runPasses {
		if err := dumpPasses(out, prog); err != nil {
			return err
		}
	}
	g := cfg.New(prog)

	if *verify {
		if diags := irverify.Diagnose(prog); len(diags) > 0 {
			for _, d := range diags {
				fmt.Fprintln(out, "verify:", d.String())
			}
			if err := out.Flush(); err != nil {
				return err
			}
			return fmt.Errorf("verify: %d diagnostic(s)", len(diags))
		}
		fmt.Fprintf(out, "verify: OK (%d blocks, %d instructions, %d symbols)\n",
			len(prog.Blocks), prog.NumInstrs, len(prog.Symbols))
	}

	if *showIR {
		fmt.Fprintln(out, prog.String())
	}
	if *showDOT && !*showVCFG {
		fmt.Fprintln(out, g.DOT())
	}
	// The colors -vcfg draws and -colors lists are the analysis's own.
	var res *core.Result
	if *showVCFG || *showColors {
		if res, err = core.Analyze(prog, core.DefaultOptions()); err != nil {
			return err
		}
	}
	if *showVCFG {
		dot := g.DOT()
		dot = strings.TrimSuffix(strings.TrimSpace(dot), "}")
		var sb strings.Builder
		sb.WriteString(dot)
		for _, f := range res.Flows {
			// vn_start: the speculation begins at the predicted successor.
			fmt.Fprintf(&sb, "  b%d -> b%d [style=dotted, color=blue, label=\"speculate\"];\n",
				f.Branch, f.SpecSucc)
			// rollback: the speculative state is injected into the other arm.
			fmt.Fprintf(&sb, "  b%d -> b%d [style=dashed, color=red, label=\"rollback\"];\n",
				f.SpecSucc, f.OtherSucc)
			// vn_stop: the speculative state merges back into the normal flow.
			if int(f.Stop) < len(prog.Blocks) {
				fmt.Fprintf(&sb, "  b%d -> b%d [style=dashed, color=red, label=\"vn_stop\"];\n",
					f.OtherSucc, f.Stop)
			}
		}
		sb.WriteString("}\n")
		fmt.Fprintln(out, sb.String())
	}
	if *mitigateF {
		if err := dumpMitigation(out, prog); err != nil {
			return err
		}
	}
	if *showColors {
		fmt.Fprintln(out, "speculative flows (color = branch x predicted direction):")
		for _, f := range res.Flows {
			dir, stop := "F", "exit"
			if f.Predicted {
				dir = "T"
			}
			if int(f.Stop) < len(prog.Blocks) {
				stop = prog.Blocks[f.Stop].Label
			}
			fmt.Fprintf(out, "  branch %-8s predict-%s: speculate %s, rollback into %s, vn_stop %s\n",
				prog.Blocks[f.Branch].Label, dir, prog.Blocks[f.SpecSucc].Label, prog.Blocks[f.OtherSucc].Label, stop)
		}
		fmt.Fprintf(out, "total colors: %d\n", len(res.Flows))
	}
	return out.Flush()
}

// dumpMitigation runs the fence synthesizer on the program and prints the
// per-function mitigation summary: MiniC programs have a single function
// (main), so the function row carries the whole program's placements,
// residuals, and fenced blocks.
func dumpMitigation(out io.Writer, prog *ir.Program) error {
	rep, err := mitigate.Synthesize(context.Background(), prog, mitigate.DefaultOptions())
	if err != nil {
		return fmt.Errorf("mitigate: %w", err)
	}
	fmt.Fprintln(out, "mitigation summary:")
	fmt.Fprintf(out, "  %-10s %-8s %-8s %-8s %s\n", "function", "leaks", "residual", "fences", "fenced blocks")
	blocks := map[string]bool{}
	var labels []string
	for _, f := range rep.Fences {
		if !blocks[f.Label] {
			blocks[f.Label] = true
			labels = append(labels, f.Label)
		}
	}
	list := "-"
	if len(labels) > 0 {
		list = strings.Join(labels, ",")
	}
	fmt.Fprintf(out, "  %-10s %-8d %-8d %-8d %s\n", "main",
		rep.BaselineLeaks+rep.BaselineGadgets, rep.ResidualLeaks+rep.ResidualGadgets,
		len(rep.Fences), list)
	for _, f := range rep.Fences {
		fmt.Fprintf(out, "    %s\n", f)
	}
	if rep.ResidualLeaks > 0 {
		fmt.Fprintf(out, "  residual leaks are not speculation-induced (classic analysis reports them too)\n")
	}
	return nil
}

// dumpPasses runs the pass pipeline and prints, for each pass, the
// effective block count (blocks reachable along taken-only edges) and the
// speculative lane count (unresolved conditional branches x 2 directions)
// before and after it, with the pass's effect from the run's Result.Stats.
// Only resolve changes either count: no other pass marks a branch resolved.
func dumpPasses(out io.Writer, prog *ir.Program) error {
	blocks, lanes := effBlockCount(prog), prog.CondBranchCount()*2
	res, err := passes.Run(prog, passes.Default())
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "pass pipeline (before -> after):")
	fmt.Fprintf(out, "  %-18s %-16s %-12s %s\n", "pass", "live blocks", "lanes", "effect")
	fmt.Fprintf(out, "  %-18s %-16d %-12d -\n", "(input)", blocks, lanes)
	for _, ps := range res.Stats {
		name, nb, nl, effect := ps.Name, blocks, lanes, "folded %d operand(s)"
		switch ps.Name {
		case "resolve":
			name, effect = "resolve-branches", "resolved %d branch(es)"
			nb, nl = effBlockCount(prog), prog.CondBranchCount()*2
		case "dce":
			effect = "nopped %d instruction(s)"
		}
		if ps.Changed == 0 {
			effect = "no change"
		} else {
			effect = fmt.Sprintf(effect, ps.Changed)
		}
		fmt.Fprintf(out, "  %-18s %-16s %-12s %s\n", name,
			fmt.Sprintf("%d -> %d", blocks, nb), fmt.Sprintf("%d -> %d", lanes, nl), effect)
		blocks, lanes = nb, nl
	}
	return nil
}

// effBlockCount counts blocks reachable from entry along effective successor
// edges (resolved branches contribute only their taken edge): the blocks the
// effective CFG's WTO orders.
func effBlockCount(prog *ir.Program) int { return len(cfg.EffectiveWTO(prog).Order) }
