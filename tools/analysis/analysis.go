// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis driver surface: named Analyzers run over
// parsed packages and report positioned Diagnostics. The repository is
// stdlib-only, so the real go/analysis framework is out of reach; this
// package keeps the same shape (Analyzer / Pass / Diagnostic, a multichecker
// driver) so project-specific checkers read like ordinary vet analyzers and
// could be ported to the real framework verbatim.
//
// The driver is purely syntactic: packages are parsed, not type-checked.
// Analyzers therefore work from AST shape and naming heuristics, which is
// exactly the level the project's checkers need (see tools/maprange).
package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the one-paragraph description printed by specvet -help.
	Doc string
	// Run inspects one package and reports findings through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed files, tests included.
	Files []*ast.File
	// Pkg is the package name (not import path); Dir its directory.
	Pkg string
	Dir string
	// Report records one finding.
	Report func(Diagnostic)
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// pkgUnit is one parsed directory/package pair.
type pkgUnit struct {
	dir   string
	name  string
	files []*ast.File
}

// Run loads the packages matched by patterns (directory paths, optionally
// with a /... suffix for recursion, like go vet) and applies every analyzer
// to each. Diagnostics are printed to stderr in file:line:col order; the
// returned count is the number of findings. Parse errors are hard errors:
// a checker that silently skips unparseable code gives false confidence.
func Run(patterns []string, analyzers []*Analyzer) (int, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		expanded, err := expand(pat)
		if err != nil {
			return 0, err
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	sort.Strings(dirs)

	count := 0
	fset := token.NewFileSet()
	for _, dir := range dirs {
		units, err := parseDir(fset, dir)
		if err != nil {
			return count, err
		}
		for _, u := range units {
			var diags []Diagnostic
			for _, a := range analyzers {
				pass := &Pass{
					Analyzer: a,
					Fset:     fset,
					Files:    u.files,
					Pkg:      u.name,
					Dir:      u.dir,
					Report:   func(d Diagnostic) { diags = append(diags, d) },
				}
				if err := a.Run(pass); err != nil {
					return count, fmt.Errorf("%s: %s: %w", u.dir, a.Name, err)
				}
			}
			sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
			for _, d := range diags {
				fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
			}
			count += len(diags)
		}
	}
	return count, nil
}

// expand resolves one pattern to package directories.
func expand(pat string) ([]string, error) {
	recursive := false
	if strings.HasSuffix(pat, "/...") {
		recursive = true
		pat = strings.TrimSuffix(pat, "/...")
	} else if pat == "..." {
		recursive = true
		pat = "."
	}
	if pat == "" {
		pat = "."
	}
	if !recursive {
		return []string{filepath.Clean(pat)}, nil
	}
	var dirs []string
	err := filepath.WalkDir(pat, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		// Mirror the go tool: _-, .-prefixed, and testdata directories do
		// not hold package code.
		if path != pat && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return fs.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, filepath.Clean(path))
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// parseDir parses every .go file of a directory, grouped by package clause
// (a directory can hold package foo and foo_test).
func parseDir(fset *token.FileSet, dir string) ([]*pkgUnit, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byName := map[string]*pkgUnit{}
	var order []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		name := f.Name.Name
		u, ok := byName[name]
		if !ok {
			u = &pkgUnit{dir: dir, name: name}
			byName[name] = u
			order = append(order, name)
		}
		u.files = append(u.files, f)
	}
	units := make([]*pkgUnit, 0, len(order))
	for _, n := range order {
		units = append(units, byName[n])
	}
	return units, nil
}
