package gen

import (
	"math/rand"
	"strings"
	"testing"

	"specabsint/internal/runner"
	"specabsint/internal/taint"
)

// TestDeterministic: the same (seed, config) pair must always produce the
// same source — the whole point of a shared generator is that a failing seed
// reproduces identically in every suite.
func TestDeterministic(t *testing.T) {
	for _, cfg := range []Config{Default(), Secrets(), Sized(3), Fenced()} {
		for seed := int64(1); seed <= 10; seed++ {
			a := Program(rand.New(rand.NewSource(seed)), cfg)
			b := Program(rand.New(rand.NewSource(seed)), cfg)
			if a != b {
				t.Fatalf("seed %d: generator is not deterministic", seed)
			}
		}
	}
}

// TestPinnedSeedsCompile keeps the soundness suite's historical seeds (1–25)
// compiling: these are the pinned regression cases the core tests replay.
func TestPinnedSeedsCompile(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		src := Source(rand.New(rand.NewSource(seed)))
		if _, _, err := runner.Compile(src, 0, false); err != nil {
			t.Errorf("pinned seed %d no longer compiles: %v\n%s", seed, err, src)
		}
	}
}

// TestGeneratedProgramsCompile sweeps a wider seed range across every
// configuration: the generator must never emit source the front end rejects.
func TestGeneratedProgramsCompile(t *testing.T) {
	configs := map[string]Config{
		"default": Default(),
		"secret":  Secrets(),
		"sized4":  Sized(4),
		"fenced":  Fenced(),
	}
	n := int64(60)
	if testing.Short() {
		n = 15
	}
	for name, cfg := range configs {
		for seed := int64(100); seed < 100+n; seed++ {
			src := Program(rand.New(rand.NewSource(seed)), cfg)
			if _, _, err := runner.Compile(src, 0, false); err != nil {
				t.Fatalf("%s seed %d does not compile: %v\n%s", name, seed, err, src)
			}
		}
	}
}

// TestFencedModeEmitsFences: across a seed sweep the fence face must
// actually fire (producing `fence;` statements the front end accepts), and
// turning it on must not disturb what the secret machinery guarantees.
func TestFencedModeEmitsFences(t *testing.T) {
	fenced := 0
	for seed := int64(1); seed <= 40; seed++ {
		src := Program(rand.New(rand.NewSource(seed)), Fenced())
		if strings.Contains(src, "fence;") {
			fenced++
		}
		prog, _, err := runner.Compile(src, 0, false)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if strings.Contains(src, "fence;") && prog.FenceCount() == 0 {
			t.Errorf("seed %d: fence statement lowered to no fence op", seed)
		}
	}
	if fenced < 10 {
		t.Fatalf("only %d/40 fenced-mode programs contain a fence", fenced)
	}
}

// TestSecretModeGroundTruth: secret-mode programs must contain at least one
// secret-indexed access (the ground truth the leak oracle checks against)
// and must never branch on the secret (so the data cache is the only
// channel).
func TestSecretModeGroundTruth(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		src := Program(rand.New(rand.NewSource(seed)), Secrets())
		if !strings.Contains(src, "secret int sec;") {
			t.Fatalf("seed %d: missing secret declaration", seed)
		}
		prog, _, err := runner.Compile(src, 0, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tnt := taint.Analyze(prog)
		if len(tnt.SecretIndexed) == 0 {
			t.Errorf("seed %d: no secret-indexed access in\n%s", seed, src)
		}
		if len(tnt.SecretBranches) != 0 {
			t.Errorf("seed %d: secret reached a branch condition in\n%s", seed, src)
		}
	}
}

// TestDefaultMatchesHistoricalGenerator pins the seed-1 program: Default()
// must keep reproducing the original soundness-suite generator's output so
// that pinned seeds retain their historical coverage. If this test fails,
// the change silently re-rolled every pinned regression case.
func TestDefaultMatchesHistoricalGenerator(t *testing.T) {
	got := Source(rand.New(rand.NewSource(1)))
	if got != historicalSeed1 {
		t.Errorf("Default() drifted from the historical generator on seed 1:\n got:\n%s\nwant:\n%s",
			got, historicalSeed1)
	}
}

// historicalSeed1 is the seed-1 program of the original generator, recorded
// when the generator was extracted from internal/core.
const historicalSeed1 = `int g0 = -3;
int g1 = 9;
int g2 = -9;
int g3 = 8;
int arr0[8];
int arr1[4];
int main(int inp) {
arr0[g3 & 7] = 14;
g2 = (g1 + 2);
g3 = -7;
g3 = g3;
return g0;
}
`
