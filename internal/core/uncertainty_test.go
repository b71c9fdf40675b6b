package core

import (
	"fmt"
	"testing"
)

// These tests pin the uncertainty-focused speculation machinery: the
// laneNeed pre-pass must skip lane spawns exactly when no wrong-path memory
// access is reachable within the speculation budget, the skip must be
// invisible in every classification, and the counters must record it.

// certainSrc branches on an unknown byte, but neither arm (nor anything
// downstream) touches memory: no wrong-path lane can ever classify an
// access, so every spawn must be skipped.
const certainSrc = `
char p;
int main() {
	reg int t;
	reg int i;
	t = p;
	if (t == 0) { i = 1; } else { i = 2; }
	return i;
}`

// uncertainSrc is the same shape with a memory access at the head of each
// arm: both arms are reachable by a wrong-path lane within any positive
// budget, so both colors of the branch must spawn.
const uncertainSrc = `
char a[256];
char p;
int main() {
	reg int t;
	reg int i;
	t = p;
	if (t == 0) { i = a[0]; } else { i = a[128]; }
	return i;
}`

// mixedSrc has an access on the then-arm only: the else-arm's lanes are
// certain (skippable), the then-arm's are not.
const mixedSrc = `
char a[256];
char p;
int main() {
	reg int t;
	reg int i;
	t = p;
	if (t == 0) { i = a[0]; } else { i = 3; }
	return i;
}`

// loopSrc keeps a loop in the CFG (the bound is data-dependent, so lowering
// cannot unroll it) and branches on a loaded byte in the body, so it runs
// the two-phase solve with rollback (SS) flows reaching the loop head. The
// loop exit's arm touches no memory: its lane is skipped.
const loopSrc = `
char a[256];
char p;
int main() {
	reg int i;
	reg int t;
	reg int s;
	t = p;
	s = 0;
	for (i = 0; i < t; i += 1) {
		if (a[i] == 0) { s = s + a[128]; } else { s = s + 1; }
	}
	return s;
}`

func TestUncertaintySkipsCertainBranch(t *testing.T) {
	prog := compile(t, certainSrc)
	res, err := Analyze(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LanesSpawned != 0 {
		t.Errorf("LanesSpawned = %d on an access-free wrong path, want 0", res.Stats.LanesSpawned)
	}
	if res.Stats.LanesSkippedCertain == 0 {
		t.Error("LanesSkippedCertain = 0: the certain branch never hit the skip path")
	}
	if len(res.SpecAccess) != 0 {
		t.Errorf("SpecAccess has %d entries, want none", len(res.SpecAccess))
	}
}

func TestUncertaintySpawnsUncertainBranch(t *testing.T) {
	prog := compile(t, uncertainSrc)
	res, err := Analyze(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LanesSpawned == 0 {
		t.Fatal("LanesSpawned = 0 on a branch with accesses in both arms")
	}
	if res.Stats.LanesSkippedCertain != 0 {
		t.Errorf("LanesSkippedCertain = %d, want 0: both arms reach an access immediately", res.Stats.LanesSkippedCertain)
	}
	// Exactly the two arm-head loads must be lane-analyzed: each arm is the
	// wrong path of the opposite prediction.
	for _, name := range []string{"a"} {
		loads := loadsOf(prog, name)
		if len(loads) != 2 {
			t.Fatalf("test program shape changed: %d loads of %s, want 2", len(loads), name)
		}
		for _, in := range loads {
			if _, ok := res.SpecAccess[in.ID]; !ok {
				t.Errorf("load of %s at line %d (instr %d) not lane-analyzed", name, in.Line, in.ID)
			}
		}
	}
}

func TestUncertaintyMixedBranchSkipsOneArm(t *testing.T) {
	prog := compile(t, mixedSrc)
	res, err := Analyze(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LanesSpawned == 0 {
		t.Error("LanesSpawned = 0: the then-arm access must draw lanes")
	}
	if res.Stats.LanesSkippedCertain == 0 {
		t.Error("LanesSkippedCertain = 0: the access-free else-arm must be skipped")
	}
	loads := loadsOf(prog, "a")
	if len(loads) != 1 {
		t.Fatalf("test program shape changed: %d loads of a, want 1", len(loads))
	}
	if _, ok := res.SpecAccess[loads[0].ID]; !ok {
		t.Error("then-arm load not lane-analyzed despite the else-arm skip")
	}
}

// TestUncertaintyBudgetGate pins the depth side of the pre-pass: when the
// speculation window is too small to reach the arm's first access, the spawn
// is skipped, and the skip agrees with what a spawned lane would have
// concluded (nothing).
func TestUncertaintyBudgetGate(t *testing.T) {
	// Three register instructions precede the access on each arm, so a lane
	// needs budget > 3 to classify it.
	src := `
char a[256];
char p;
int main() {
	reg int t;
	reg int i;
	t = p;
	if (t == 0) { i = 1; i = 2; i = 3; i = a[0]; } else { i = 1; i = 2; i = 3; i = a[128]; }
	return i;
}`
	prog := compile(t, src)
	run := func(depth int) *Result {
		t.Helper()
		opts := DefaultOptions()
		opts.DepthMiss, opts.DepthHit = depth, depth
		res, err := Analyze(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tiny := run(2)
	if tiny.Stats.LanesSpawned != 0 {
		t.Errorf("depth=2: LanesSpawned = %d, want 0 (first access needs budget > 3)", tiny.Stats.LanesSpawned)
	}
	if tiny.Stats.LanesSkippedCertain == 0 {
		t.Error("depth=2: LanesSkippedCertain = 0, want the budget gate to trigger")
	}
	if len(tiny.SpecAccess) != 0 {
		t.Errorf("depth=2: SpecAccess has %d entries, want none", len(tiny.SpecAccess))
	}
	wide := run(30)
	if wide.Stats.LanesSpawned == 0 {
		t.Error("depth=30: LanesSpawned = 0, want lanes to reach the accesses")
	}
	if wide.Stats.LanesSkippedCertain != 0 {
		t.Errorf("depth=30: LanesSkippedCertain = %d, want 0", wide.Stats.LanesSkippedCertain)
	}
}

// TestUncertaintyPruningInvisible is the soundness contract of the skip: on
// every probe program, classifications with the uncertainty machinery on are
// byte-identical to the ablation run with it off (which spawns every lane
// and lets the useless ones die naturally).
func TestUncertaintyPruningInvisible(t *testing.T) {
	for name, src := range map[string]string{
		"certain": certainSrc, "uncertain": uncertainSrc, "mixed": mixedSrc, "fig2": fig2Source,
		"loop": loopSrc,
	} {
		t.Run(name, func(t *testing.T) {
			prog := compile(t, src)
			on, err := Analyze(prog, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.DisableUncertainty = true
			off, err := Analyze(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprint(on.Access), fmt.Sprint(off.Access); got != want {
				t.Errorf("architectural classifications differ:\n on  %s\n off %s", got, want)
			}
			if got, want := fmt.Sprint(on.SpecAccess), fmt.Sprint(off.SpecAccess); got != want {
				t.Errorf("lane classifications differ:\n on  %s\n off %s", got, want)
			}
		})
	}
}

// TestWTOComponentsStat pins the component counter: a loop-free program has
// none and a loopy one at least one.
func TestWTOComponentsStat(t *testing.T) {
	straight := compile(t, certainSrc)
	res, err := Analyze(straight, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WTOComponents != 0 {
		t.Errorf("WTOComponents = %d on a loop-free program, want 0", res.Stats.WTOComponents)
	}
	// A data-dependent bound keeps the loop in the CFG (constant-bound loops
	// are unrolled away by lowering).
	loopy := compile(t, `
char a[256];
char p;
int main() {
	reg int i;
	reg int t;
	t = p;
	for (i = 0; i < t; i += 1) { t = t + a[i]; }
	return t;
}`)
	res, err = Analyze(loopy, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WTOComponents == 0 {
		t.Error("WTOComponents = 0 on a program with a loop")
	}
}
