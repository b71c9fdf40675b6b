// Command specfuzz is the differential soundness fuzzer: it generates random
// MiniC programs (internal/gen), checks every oracle property on each
// (internal/oracle) — must-hit/must-miss soundness against the concrete
// speculative simulator, leak-detection completeness, the metamorphic window
// and unroll relations, and parallel equivalence — and shrinks any failing
// program to a minimal reproducer.
//
// Usage:
//
//	specfuzz [flags]
//
// Examples:
//
//	specfuzz -seed 1 -n 500
//	specfuzz -duration 30s -workers 8 -corpus internal/oracle/testdata/fuzz-corpus
//
// Failing reproducers are written to the corpus directory (when -corpus is
// set); internal/oracle's TestFuzzCorpusReplay replays that directory
// forever, so a caught bug stays caught.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"specabsint/internal/gen"
	"specabsint/internal/oracle"
	"specabsint/internal/runner"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "first generator seed; program i uses seed+i")
		n        = flag.Int("n", 200, "number of programs to check (ignored when -duration is set)")
		duration = flag.Duration("duration", 0, "keep fuzzing until this much time has passed")
		workers  = flag.Int("workers", 0, "analysis pool workers (0 = GOMAXPROCS)")
		corpus   = flag.String("corpus", "", "write shrunk reproducers to this directory")
		quick    = flag.Bool("quick", false, "use the cut-down oracle sweep (fewer configurations)")
		verbose  = flag.Bool("v", false, "log every program checked")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: specfuzz [flags]")
		flag.Usage()
		os.Exit(2)
	}

	cfg := oracle.Default()
	if *quick {
		cfg = oracle.Quick()
	}
	cfg.Pool = runner.New(*workers)

	// Alternate the generator distributions so one sweep exercises plain
	// programs, secret-carrying programs, larger programs, and fence-bearing
	// programs (the shape the mitigation synthesizer emits).
	genCfgs := []gen.Config{gen.Default(), gen.Secrets(), gen.Sized(2), gen.Fenced()}

	start := time.Now()
	deadline := time.Time{}
	if *duration > 0 {
		deadline = start.Add(*duration)
	}
	checked, analyses, traces, failures := 0, 0, 0, 0
	for i := 0; ; i++ {
		if deadline.IsZero() {
			if i >= *n {
				break
			}
		} else if time.Now().After(deadline) {
			break
		}
		s := *seed + int64(i)
		gcfg := genCfgs[i%len(genCfgs)]
		src := gen.Program(rand.New(rand.NewSource(s)), gcfg)
		res, err := oracle.Check(src, cfg)
		if err != nil {
			// The generator emitted a program the front end rejects: that is
			// a bug in gen itself, and the program text is the reproducer.
			fmt.Fprintf(os.Stderr, "seed %d: generated program does not compile: %v\n%s", s, err, src)
			failures++
			continue
		}
		checked++
		analyses += res.Analyses
		traces += res.Traces
		if *verbose {
			fmt.Printf("seed %d: ok (%d analyses, %d traces)\n", s, res.Analyses, res.Traces)
		}
		if !res.Failed() {
			continue
		}
		failures++
		fmt.Fprintf(os.Stderr, "seed %d FAILED: %d violation(s)\n", s, len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		shrunk := shrink(src, cfg)
		fmt.Fprintf(os.Stderr, "reproducer (%d lines):\n%s", len(strings.Split(strings.TrimRight(shrunk, "\n"), "\n")), shrunk)
		if *corpus != "" {
			if path, err := writeReproducer(*corpus, s, shrunk, res.Violations); err != nil {
				fmt.Fprintf(os.Stderr, "write reproducer: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "reproducer written to %s\n", path)
			}
		}
	}
	fmt.Printf("specfuzz: %d programs, %d analyses, %d traces, %d failure(s) in %v\n",
		checked, analyses, traces, failures, time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		os.Exit(1)
	}
}

// shrink minimizes a failing program: a candidate is kept while it still
// compiles and still refutes at least one oracle property.
func shrink(src string, cfg oracle.Config) string {
	return oracle.Shrink(src, func(cand string) bool {
		res, err := oracle.Check(cand, cfg)
		return err == nil && res.Failed()
	})
}

// writeReproducer stores a shrunk failing program in the corpus directory,
// with the violations it triggered as a header comment.
func writeReproducer(dir string, seed int64, src string, violations []oracle.Violation) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "// specfuzz reproducer (seed %d). Violations at capture time:\n", seed)
	for _, v := range violations {
		fmt.Fprintf(&sb, "//   %s\n", v)
	}
	sb.WriteString(src)
	path := filepath.Join(dir, fmt.Sprintf("specfuzz-seed%d.c", seed))
	return path, os.WriteFile(path, []byte(sb.String()), 0o644)
}
