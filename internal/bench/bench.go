// Package bench holds the MiniC benchmark corpus used by the experiment
// harness. The paper evaluates on ten WCET kernels (Mälardalen, MiBench,
// MediaBench — Table 3) and ten cryptographic kernels (hpn-ssh,
// LibTomCrypt, OpenSSL, linux-tegra — Table 4). Those exact C sources
// cannot be vendored here, so each benchmark is rewritten in MiniC
// preserving the cache-relevant structure: table sizes and layouts, loop
// nests, and data-dependent branches (see DESIGN.md, "Substitutions").
package bench

import (
	"fmt"
	"strings"

	"specabsint/internal/ir"
	"specabsint/internal/lower"
	"specabsint/internal/source"
)

// Kind distinguishes the two benchmark sets.
type Kind int

// Benchmark sets.
const (
	WCET Kind = iota
	SideChannel
)

// Benchmark is one corpus entry.
type Benchmark struct {
	Name        string
	Origin      string // provenance of the modeled kernel (Table 3/4 "Source")
	Description string
	Kind        Kind
	Code        string // MiniC source; SideChannel kernels lack a main
}

// LoC counts non-blank source lines (reported in Tables 3/4).
func (b Benchmark) LoC() int {
	n := 0
	for _, ln := range strings.Split(b.Code, "\n") {
		if strings.TrimSpace(ln) != "" {
			n++
		}
	}
	return n
}

// Compile parses and lowers a benchmark (plus an optional client wrapper
// already merged into code) to IR.
func Compile(code string, maxUnroll int) (*ir.Program, error) {
	ast, err := source.Parse(code)
	if err != nil {
		return nil, err
	}
	opts := lower.DefaultOptions()
	if maxUnroll > 0 {
		opts.MaxUnroll = maxUnroll
	}
	return lower.Lower(ast, opts)
}

// WithClient wraps a side-channel kernel in the paper's Fig. 10 client: the
// kernel's primary table `sc_table` is preloaded, an attacker-controlled
// input buffer of bufBytes bytes is read (touching one word per cache
// line), a branchy dispatcher touches one of two fresh lines (the Fig. 2
// l1/l2 pattern — the mis-speculated arm is the extra eviction), and
// finally the kernel runs. The kernel must define `int sc_table[256]` and
// `int kernel(int x)`.
func WithClient(b Benchmark, bufBytes int) string {
	bufInts := bufBytes / 4
	if bufInts < 16 {
		bufInts = 16
	}
	return fmt.Sprintf(`%s
int client_inBuf[%d];
int client_l1[16];
int client_l2[16];
char client_mode;
int main() {
	reg int i; reg int tmp;
	tmp = 0;
	for (i = 0; i < 256; i += 16) { tmp = tmp + sc_table[i]; }
	for (i = 0; i < %d; i += 16) { tmp = tmp + client_inBuf[i]; }
	if (client_mode == 0) { tmp = tmp + client_l1[0]; }
	else { tmp = tmp - client_l2[0]; }
	tmp = tmp + kernel(client_inBuf[0]);
	return tmp;
}
`, b.Code, bufInts, bufInts)
}

// Fig2Program renders the paper's Fig. 2 motivating example. When kConst is
// negative the secret k is left symbolic (a `secret` register); otherwise it
// is fixed to the given concrete value so the concrete simulator can replay
// Fig. 3.
func Fig2Program(kConst int) string {
	kDecl := "secret reg int k;"
	if kConst >= 0 {
		kDecl = fmt.Sprintf("reg int k;\n\tk = %d;", kConst)
	}
	return fmt.Sprintf(`
char ph[64*510];
char l1[64];
char l2[64];
char p;
int main() {
	reg int i; reg int tmp;
	%s
	for (i = 0; i < 64*510; i += 64) { tmp = ph[i]; }
	if (p == 0) { tmp = l1[0]; }
	else { tmp = l2[0]; }
	tmp = ph[k];
	return tmp;
}`, kDecl)
}

// QuantlProgram is the paper's Fig. 8 running example (the quantl routine of
// the adpcm Mälardalen benchmark) with a symbolic input.
const QuantlProgram = `
int quant26bt_pos[31] = { 61,60,59,58,57,56,55,54,53,52,51,50,49,48,47,
	46,45,44,43,42,41,40,39,38,37,36,35,34,33,32,32 };
int quant26bt_neg[31] = { 63,62,31,30,29,28,27,26,25,24,23,22,21,20,19,
	18,17,16,15,14,13,12,11,10,9,8,7,6,5,4,4 };
int decis_levl[30] = { 280,576,880,1200,1520,1864,2208,2584,2960,3376,
	3784,4240,4696,5200,5712,6288,6864,7520,8184,8968,9752,10712,11664,
	12896,14120,15840,17560,20456,23352,32767 };
int my_abs(int x) { if (x < 0) { return -x; } return x; }
int quantl(int el, int detl) {
	int ril; int mil;
	long wd; long decis;
	wd = my_abs(el);
	for (mil = 0; mil < 30; mil++) {
		decis = (decis_levl[mil] * (long)detl) >> 15;
		if (wd <= decis) break;
	}
	if (el >= 0) { ril = quant26bt_pos[mil]; }
	else { ril = quant26bt_neg[mil]; }
	return ril;
}
int main(int el, int detl) { return quantl(el, detl); }
`

// All returns the full corpus.
func All() []Benchmark {
	out := append([]Benchmark(nil), WCETBenchmarks()...)
	return append(out, CryptoBenchmarks()...)
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, bool) {
	for _, b := range All() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// CorpusSource returns the MiniC source of one program of the corpus as the
// command-line tools analyze it: "fig2" is the paper's Fig. 2 example, any
// other name a benchmark, with side-channel kernels wrapped in the Fig. 10
// client with a 4 KiB attacker buffer so they have a main.
func CorpusSource(name string) (string, error) {
	if name == "fig2" {
		return Fig2Program(-1), nil
	}
	b, ok := ByName(name)
	if !ok {
		names := []string{"fig2"}
		for _, bb := range All() {
			names = append(names, bb.Name)
		}
		return "", fmt.Errorf("unknown corpus program %q (have: %s)", name, strings.Join(names, ", "))
	}
	if b.Kind == SideChannel {
		return WithClient(b, 4096), nil
	}
	return b.Code, nil
}
