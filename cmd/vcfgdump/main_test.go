package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeProgram drops MiniC source into a temp file and returns its path.
func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.c")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const fencedSrc = `char ph[256];
char p;
secret reg int k;
int main() {
  reg int t;
  if (p == 0) {
    fence;
    t = ph[0];
  }
  t = ph[k & 255];
  return t;
}
`

// TestFenceRendering pins that fence instructions written in the source
// appear in both the -ir listing and the DOT node labels.
func TestFenceRendering(t *testing.T) {
	path := writeProgram(t, fencedSrc)
	var out bytes.Buffer
	if err := run(&out, []string{"-ir", "-dot", path}); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "fence") {
		t.Fatalf("no fence instruction in output:\n%s", text)
	}
	if !strings.Contains(text, "digraph cfg") {
		t.Fatalf("DOT section missing:\n%s", text)
	}
}

// TestMitigationSummary pins the -mitigate section: a leaky program gets a
// per-function row with synthesized fences and zero residual.
func TestMitigationSummary(t *testing.T) {
	src := `char ph[256];
char p;
secret reg int k;
reg int t;
int main() {
  if (p == 0) {
    t = ph[k & 255];
  }
  return t;
}
`
	path := writeProgram(t, src)
	var out bytes.Buffer
	if err := run(&out, []string{"-dot=false", "-mitigate", path}); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "mitigation summary:") {
		t.Fatalf("no mitigation summary in output:\n%s", text)
	}
	if !strings.Contains(text, "main") {
		t.Fatalf("no per-function row in output:\n%s", text)
	}
}

// failingWriter errors on every write.
type failingWriter struct{}

var errSink = errors.New("sink failed")

func (failingWriter) Write([]byte) (int, error) { return 0, errSink }

// TestWriteErrorExitsNonzero pins the failure path main relies on for its
// non-zero exit: a write error on stdout must surface as run's error, not be
// swallowed (a failed dump that exits 0 corrupts downstream pipelines).
func TestWriteErrorExitsNonzero(t *testing.T) {
	path := writeProgram(t, fencedSrc)
	err := run(failingWriter{}, []string{"-ir", path})
	if err == nil {
		t.Fatal("run succeeded despite every write failing")
	}
	if !errors.Is(err, errSink) {
		t.Fatalf("error %v does not wrap the writer's failure", err)
	}
}

// TestColorsAreTheAnalysisFlows pins -colors to the colors the analysis
// spawns. After -passes the outer branch below is resolved, so the branch
// behind its dead edge is unreachable along effective successors and spawns
// no lane: -colors must list the live branch's two colors, the ones -vcfg
// draws, and not the dead one's.
func TestColorsAreTheAnalysisFlows(t *testing.T) {
	path := writeProgram(t, `char a[64];
int main() {
  int x = 0;
  int t = 0;
  if (x == 1) {
    if (a[0] == 3) { t = a[1]; }
  }
  if (a[2] == 5) { t = a[3]; }
  return t;
}
`)
	var out bytes.Buffer
	if err := run(&out, []string{"-passes", "-dot=false", "-vcfg", "-colors", path}); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	drawn := strings.Count(text, `label="speculate"`)
	listed := strings.Count(text, "  branch ")
	if drawn != 2 || listed != drawn || !strings.Contains(text, "total colors: 2\n") {
		t.Fatalf("-vcfg draws %d speculate edges, -colors lists %d colors, want 2 and 2:\n%s", drawn, listed, text)
	}
}

// TestPassesTable pins the -passes table byte for byte on a program whose
// pipeline resolves a branch (the only pass that changes live blocks and
// lanes) and on one where no branch resolves.
func TestPassesTable(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
	}{
		{
			name: "resolved",
			src: `char a[64];
int main() {
  int x = 0;
  int t = 0;
  if (x == 1) {
    if (a[0] == 3) { t = a[1]; }
  }
  if (a[2] == 5) { t = a[3]; }
  return t;
}
`,
			want: `pass pipeline (before -> after):
  pass               live blocks      lanes        effect
  (input)            8                6            -
  sccp               8 -> 8           6 -> 6       folded 2 operand(s)
  copyprop           8 -> 8           6 -> 6       no change
  resolve-branches   8 -> 5           6 -> 4       resolved 1 branch(es)
  dce                5 -> 5           4 -> 4       nopped 1 instruction(s)
`,
		},
		{
			name: "unresolved",
			src: `char ph[256];
char p;
secret reg int k;
int main() {
  reg int t;
  reg int u;
  u = p + 1;
  t = u;
  if (p == 0) {
    t = ph[0];
  }
  t = t + ph[k & 255];
  return t;
}
`,
			want: `pass pipeline (before -> after):
  pass               live blocks      lanes        effect
  (input)            4                2            -
  sccp               4 -> 4           2 -> 2       no change
  copyprop           4 -> 4           2 -> 2       folded 2 operand(s)
  resolve-branches   4 -> 4           2 -> 2       no change
  dce                4 -> 4           2 -> 2       nopped 2 instruction(s)
`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, []string{"-passes", "-dot=false", writeProgram(t, tc.src)}); err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != tc.want {
				t.Fatalf("-passes table:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}
