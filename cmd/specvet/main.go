// Command specvet is the project's vet multichecker: it runs the
// repository-specific analyzers (tools/maprange, the nondeterministic
// map-iteration check) over the given packages and exits non-zero on
// findings, mirroring `go vet` so CI can chain them.
//
// Usage:
//
//	specvet [packages]
//
// Packages are directory patterns (`./...` by default), like the go tool.
package main

import (
	"flag"
	"fmt"
	"os"

	"specabsint/tools/analysis"
	"specabsint/tools/maprange"
)

var analyzers = []*analysis.Analyzer{
	maprange.Analyzer,
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: specvet [packages]")
		fmt.Fprintln(os.Stderr, "\nregistered analyzers:")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "\n%s:\n%s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	count, err := analysis.Run(flag.Args(), analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "specvet:", err)
		os.Exit(2)
	}
	if count > 0 {
		os.Exit(1)
	}
}
