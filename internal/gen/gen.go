// Package gen generates random, well-formed MiniC programs for differential
// testing. It is the single source of fuzz programs for the soundness suite
// (internal/core), the instruction-cache tests, and the specfuzz oracle
// driver (cmd/specfuzz): one generator means
// a failing seed reproduces identically everywhere.
//
// Programs are generated from a seeded *rand.Rand and a Config, and are
// deterministic in both: the same (seed, config) pair always yields the same
// source text. With Default() the generator reproduces, byte for byte, the
// distribution of the original private generator that lived in
// internal/core's soundness test, so its pinned regression seeds keep their
// historical meaning.
//
// Generated programs are architecturally safe by construction — array
// indices are masked to the array length — but deliberately speculation-
// hostile: bounds-guarded *unmasked* accesses (the Spectre v1 shape) read
// out of bounds on mis-speculated paths. With Config.Secret, programs also
// declare a secret-tagged input and emit secret-indexed accesses whose cache
// footprint depends on the secret, giving the side-channel analyses known
// ground truth to detect.
package gen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config tunes the shape and size of generated programs.
type Config struct {
	// MinScalars / MaxScalars bound the number of int globals (g0, g1, ...).
	MinScalars, MaxScalars int
	// MinArrays / MaxArrays bound the number of int array globals.
	MinArrays, MaxArrays int
	// ArraySizes is the pool of array lengths; each must be a power of two
	// (indices are masked with len-1).
	ArraySizes []int
	// MaxDepth bounds statement nesting: branches generate at depth <
	// MaxDepth, loops at depth < MaxDepth-1.
	MaxDepth int
	// MinStmts / MaxStmts bound the number of top-level statements.
	MinStmts, MaxStmts int
	// Secret adds a secret-tagged scalar input and emits secret-indexed
	// loads and stores (cache side-channel sources with known ground truth).
	// The secret never flows into a branch condition, so the only channel in
	// a generated program is the data cache.
	Secret bool
	// Fences adds `fence;` statements to the statement die: speculation
	// barriers at random points exercise the analyzer's lane-truncation
	// paths and the machine's wrong-path squashing against each other.
	// Off by default so the historical rng consumption is untouched.
	Fences bool
}

// Default mirrors the original soundness-suite generator: 2–4 scalars, 1–2
// arrays of 4–32 elements, nesting depth 3, 4–7 top-level statements, no
// secrets. With this config Program consumes the rng exactly like the
// historical generator, so pinned seeds regenerate their original programs.
func Default() Config {
	return Config{
		MinScalars: 2, MaxScalars: 4,
		MinArrays: 1, MaxArrays: 2,
		ArraySizes: []int{4, 8, 16, 32},
		MaxDepth:   3,
		MinStmts:   4, MaxStmts: 7,
	}
}

// Secrets is Default with secret-tagged inputs enabled.
func Secrets() Config {
	c := Default()
	c.Secret = true
	return c
}

// Fenced is Secrets with fence emission enabled: leaky programs with random
// speculation barriers, the shape the mitigation synthesizer both consumes
// and produces.
func Fenced() Config {
	c := Secrets()
	c.Fences = true
	return c
}

// Sized scales Default's statement budget by n (n <= 1 is Default): larger
// programs exercise deeper speculation windows and more cache pressure.
func Sized(n int) Config {
	c := Default()
	if n > 1 {
		c.MinStmts *= n
		c.MaxStmts *= n
		c.MaxScalars += n
		c.MaxArrays++
	}
	return c
}

// Source generates a program with the Default configuration. It is the
// drop-in replacement for the soundness suite's original genProgram.
func Source(rng *rand.Rand) string { return Program(rng, Default()) }

// intn draws from [lo, hi].
func intn(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// Program produces a random but well-formed MiniC program under cfg: global
// scalars and arrays, nested branches, bounded loops, and masked array
// indices (so architectural execution never faults).
func Program(rng *rand.Rand, cfg Config) string {
	var sb strings.Builder
	nScalars := intn(rng, cfg.MinScalars, cfg.MaxScalars)
	nArrays := intn(rng, cfg.MinArrays, cfg.MaxArrays)
	for i := 0; i < nScalars; i++ {
		fmt.Fprintf(&sb, "int g%d = %d;\n", i, rng.Intn(20)-10)
	}
	arrLens := make([]int, nArrays)
	for i := 0; i < nArrays; i++ {
		arrLens[i] = cfg.ArraySizes[rng.Intn(len(cfg.ArraySizes))]
		fmt.Fprintf(&sb, "int arr%d[%d];\n", i, arrLens[i])
	}
	const secLen = 16
	secretAccesses := 0
	if cfg.Secret {
		fmt.Fprintf(&sb, "secret int sec;\nint sink;\nint secarr[%d];\n", secLen)
	}
	sb.WriteString("int main(int inp) {\n")

	expr := func() string {
		switch rng.Intn(6) {
		case 0:
			return fmt.Sprintf("%d", rng.Intn(30)-15)
		case 1:
			return fmt.Sprintf("g%d", rng.Intn(nScalars))
		case 2:
			a := rng.Intn(nArrays)
			return fmt.Sprintf("arr%d[g%d & %d]", a, rng.Intn(nScalars), arrLens[a]-1)
		case 3:
			return fmt.Sprintf("(g%d + %d)", rng.Intn(nScalars), rng.Intn(9))
		case 4:
			return fmt.Sprintf("(g%d * %d)", rng.Intn(nScalars), rng.Intn(4))
		default:
			return "inp"
		}
	}
	cond := func() string {
		ops := []string{"<", ">", "==", "!=", "<=", ">="}
		return fmt.Sprintf("%s %s %s", expr(), ops[rng.Intn(len(ops))], expr())
	}
	// secretStmt emits a secret-indexed access. Loads read public arrays but
	// land in the write-only sink; stores go to the dedicated secarr that
	// public code never reads. Either way the secret cannot influence
	// control flow — by construction the generated program's sole secret
	// channel is the cache line the masked index selects. (A secret-indexed
	// store into a *public* array would conservatively taint every value
	// later loaded from it, and with it any branch those values feed.)
	secretStmt := func() {
		if rng.Intn(2) == 0 {
			a := rng.Intn(nArrays)
			fmt.Fprintf(&sb, "sink = arr%d[sec & %d];\n", a, arrLens[a]-1)
		} else {
			fmt.Fprintf(&sb, "secarr[sec & %d] = g%d;\n", secLen-1, rng.Intn(nScalars))
		}
		secretAccesses++
	}

	// kinds is the statement-kind die. The historical generator rolled
	// Intn(8); secret mode extends the die with two secret-access faces and
	// fence mode with one barrier face, so the default distribution is
	// untouched when both are off.
	kinds := 8
	if cfg.Secret {
		kinds = 10
	}
	fenceFace := -1
	if cfg.Fences {
		fenceFace = kinds
		kinds++
	}
	var stmts func(depth, n int)
	stmts = func(depth, n int) {
		for i := 0; i < n; i++ {
			switch k := rng.Intn(kinds); {
			case k == fenceFace:
				sb.WriteString("fence;\n")
			case k < 3:
				fmt.Fprintf(&sb, "g%d = %s;\n", rng.Intn(nScalars), expr())
			case k < 5:
				a := rng.Intn(nArrays)
				fmt.Fprintf(&sb, "arr%d[g%d & %d] = %s;\n",
					a, rng.Intn(nScalars), arrLens[a]-1, expr())
			case k == 5 && depth < cfg.MaxDepth:
				// Bounds-guarded unmasked access: architecturally safe, but
				// a mis-speculated guard reads out of bounds (Spectre v1).
				a := rng.Intn(nArrays)
				g := rng.Intn(nScalars)
				fmt.Fprintf(&sb, "if (g%d >= 0 && g%d < %d) { g%d = arr%d[g%d]; }\n",
					g, g, arrLens[a], rng.Intn(nScalars), a, g)
			case k < 7 && depth < cfg.MaxDepth:
				fmt.Fprintf(&sb, "if (%s) {\n", cond())
				stmts(depth+1, 1+rng.Intn(2))
				if rng.Intn(2) == 0 {
					sb.WriteString("} else {\n")
					stmts(depth+1, 1+rng.Intn(2))
				}
				sb.WriteString("}\n")
			case k < 8 && depth < cfg.MaxDepth-1:
				iv := fmt.Sprintf("i%d_%d", depth, i)
				fmt.Fprintf(&sb, "for (int %s = 0; %s < %d; %s++) {\n",
					iv, iv, 2+rng.Intn(6), iv)
				stmts(depth+1, 1+rng.Intn(2))
				sb.WriteString("}\n")
			case k >= 8:
				secretStmt()
			default:
				fmt.Fprintf(&sb, "g%d = g%d - 1;\n", rng.Intn(nScalars), rng.Intn(nScalars))
			}
		}
	}
	stmts(0, intn(rng, cfg.MinStmts, cfg.MaxStmts))
	if cfg.Secret && secretAccesses == 0 {
		secretStmt()
	}
	fmt.Fprintf(&sb, "return g0;\n}\n")
	return sb.String()
}
