package specabsint

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"specabsint/internal/gen"
	"specabsint/internal/runner"
)

// irDigestBuilds are the compilations the IR digest pins for every program:
// the default pipeline, the pipeline with an instruction cache modeled (no
// DCE), lowering alone, and the pipeline over loops kept rolled.
var irDigestBuilds = []struct {
	name           string
	maxUnroll      int
	passes, icache bool
}{
	{"passes", 0, true, false},
	{"icache", 0, true, true},
	{"nopasses", 0, false, false},
	{"unroll1", 1, true, false},
}

// irDigestGenerated is how many seeded generated programs the digest's last
// line covers, drawn in turn from irDigestConfigs.
const irDigestGenerated = 500

var irDigestConfigs = []gen.Config{gen.Default(), gen.Secrets(), gen.Sized(2), gen.Sized(3), gen.Fenced()}

// writeIR feeds h one compilation of src: its printed IR, register counts
// and every instruction's source line and id, which the printout leaves out,
// or the compile error.
func writeIR(h io.Writer, src string, maxUnroll int, passes, icache bool) {
	prog, _, err := runner.Compile(src, maxUnroll, passes, icache)
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
		return
	}
	io.WriteString(h, prog.String())
	fmt.Fprintf(h, "regs=%d inputs=%v secrets=%v\n", prog.NumRegs, prog.InputRegs, prog.SecretRegs)
	for _, b := range prog.Blocks {
		for i := range b.Instrs {
			fmt.Fprintf(h, "%d %d\n", b.Instrs[i].Line, b.Instrs[i].ID)
		}
	}
}

// irDigestLine compiles every source under each of irDigestBuilds and
// renders one SHA-256 per build, over all the sources in order.
func irDigestLine(key string, srcs []string) string {
	line := key
	for _, b := range irDigestBuilds {
		h := sha256.New()
		for _, src := range srcs {
			writeIR(h, src, b.maxUnroll, b.passes, b.icache)
		}
		line += fmt.Sprintf(" %s=%x", b.name, h.Sum(nil))
	}
	return line
}

// TestGoldenIRDigest pins the IR the compile pipeline produces, byte for
// byte, in testdata/golden/ir_digest.txt: one line per corpus program and
// one over irDigestGenerated seeded generated programs, each holding a
// digest of the printed program plus every instruction's line and id under
// each of irDigestBuilds. A pass or IR-layout change that alters a single
// operand, nop, resolved branch, line or id shows up as a changed line.
// Under -race or -short only the corpus digest's cheap slice is compiled,
// and its lines are compared against the full golden file.
func TestGoldenIRDigest(t *testing.T) {
	cheap := (raceDetectorOn || testing.Short()) && !*updateGolden
	var lines []string
	for _, cp := range paperCorpus() {
		if cheap && !corpusDigestCheap[cp.name] {
			continue
		}
		lines = append(lines, irDigestLine(cp.name, []string{cp.src}))
	}
	if !cheap {
		rng := rand.New(rand.NewSource(1))
		srcs := make([]string, irDigestGenerated)
		for i := range srcs {
			srcs[i] = gen.Program(rng, irDigestConfigs[i%len(irDigestConfigs)])
		}
		lines = append(lines, irDigestLine(fmt.Sprintf("generated programs=%d", len(srcs)), srcs))
	}
	checkDigestLines(t, "ir_digest.txt", lines, cheap)
}
