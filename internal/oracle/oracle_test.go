package oracle

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/gen"
	"specabsint/internal/runner"
)

// testConfig picks the sweep breadth by instrumentation: the full Default
// sweep normally, the cut-down Quick sweep under -race or -short.
func testConfig() Config {
	if raceDetectorOn || testing.Short() {
		return Quick()
	}
	return Default()
}

// TestOracleOnGeneratedPrograms is the oracle's own soundness test: on
// known-good builds every property must hold for every generated program, in
// both the default and the secret-carrying distributions.
func TestOracleOnGeneratedPrograms(t *testing.T) {
	n := int64(25)
	if raceDetectorOn || testing.Short() {
		n = 6
	}
	pool := runner.New(0)
	for _, tc := range []struct {
		name string
		cfg  gen.Config
	}{
		{"default", gen.Default()},
		{"secret", gen.Secrets()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= n; seed++ {
				src := gen.Program(rand.New(rand.NewSource(seed)), tc.cfg)
				cfg := testConfig()
				cfg.Pool = pool
				res, err := Check(src, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Analyses == 0 || res.Traces == 0 {
					t.Fatalf("seed %d: sweep ran %d analyses, %d traces", seed, res.Analyses, res.Traces)
				}
				for _, v := range res.Violations {
					t.Errorf("seed %d: %s", seed, v)
				}
				if res.Failed() {
					t.Fatalf("seed %d refuted on program:\n%s", seed, src)
				}
			}
		})
	}
}

// TestFuzzCorpusReplay replays every checked-in reproducer under the full
// sweep. Failures found by cmd/specfuzz land in testdata/fuzz-corpus and are
// re-verified here forever.
func TestFuzzCorpusReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz-corpus", "*.c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("expected at least the 3 seed corpus programs, found %d", len(files))
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Check(string(src), testConfig())
			if err != nil {
				t.Fatalf("corpus program no longer compiles: %v", err)
			}
			for _, v := range res.Violations {
				t.Errorf("%s", v)
			}
		})
	}
}

// TestSecretCorpusExercisesLeakProperty guards against the leak-completeness
// check silently becoming vacuous: a secret-carrying corpus program, and the
// paper's Fig. 2 with its secret `k` in a register, must actually reach it
// (secrets present, no secret-tainted branches). The traces it adds are the
// difference between a sweep with secret pairs and one without: one pair of
// replays per secret pair per soundness combo.
func TestSecretCorpusExercisesLeakProperty(t *testing.T) {
	spectre, err := os.ReadFile(filepath.Join("testdata", "fuzz-corpus", "spectre-v1.c"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, src string }{
		{"spectre-v1.c", string(spectre)},
		{"fig2-secret-reg", bench.Fig2Program(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Quick()
			res, err := Check(tc.src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				t.Fatalf("unexpected violations: %v", res.Violations)
			}
			noPairs := Quick()
			noPairs.SecretPairs = nil
			base, err := Check(tc.src, noPairs)
			if err != nil {
				t.Fatal(err)
			}
			combos := len(cfg.Caches) * len(cfg.Depths)
			if got, want := res.Traces-base.Traces, 2*combos*len(cfg.SecretPairs); got != want {
				t.Fatalf("leak-completeness ran %d traces (%d in all, %d without secret pairs), want %d",
					got, res.Traces, base.Traces, want)
			}
		})
	}
}

func TestCheckRejectsUncompilableProgram(t *testing.T) {
	if _, err := Check("int main( {", Quick()); err == nil {
		t.Fatal("expected a compile error")
	}
	if _, err := Check("int g0 = 1;\nint main(int inp) {\nreturn undeclared;\n}\n", Quick()); err == nil {
		t.Fatal("expected an undeclared-identifier error")
	}
}

// TestCheckRejectsUnknownPredictor: a misspelt predictor name is an error,
// not a sweep under some other predictor.
func TestCheckRejectsUnknownPredictor(t *testing.T) {
	cfg := Quick()
	cfg.Predictors = []string{"2bti"}
	_, err := Check("int main() { return 0; }", cfg)
	if err == nil || !strings.Contains(err.Error(), `"2bti"`) {
		t.Fatalf("Check with predictor 2bti: err = %v, want an unknown-predictor error", err)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Property: MustHit, Config: "cfg", InstrID: 7, Line: 3, Detail: "missed"}
	s := v.String()
	for _, want := range []string{"must-hit", "line 3", "instr 7", "missed", "cfg"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
