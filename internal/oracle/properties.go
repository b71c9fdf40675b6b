package oracle

import (
	"fmt"

	"specabsint/internal/cache"
	"specabsint/internal/core"
	"specabsint/internal/machine"
	"specabsint/internal/sidechannel"
)

// checkLeakCompleteness compares concrete traces that differ only in the
// secret inputs (secret memory scalars and `secret reg` registers): when the
// cache behaviour of a secret-indexed access diverges between them, an
// attacker timing that access learns something about the secret, so the
// side-channel report must name it. The property holds unconditionally for
// programs whose secrets never reach a branch condition (internal/gen's
// secret mode guarantees this); programs with secret-dependent control flow
// are skipped — there the control-flow channel, reported separately,
// already covers the divergence.
func (c *checker) checkLeakCompleteness(rep *sidechannel.Report, cb combo) {
	if !machine.HasSecretInputs(c.prog) || len(c.tnt.SecretBranches) > 0 || len(c.tnt.SecretIndexed) == 0 {
		return
	}
	leaked := map[int]bool{}
	for _, l := range rep.Leaks {
		leaked[l.InstrID] = true
	}
	simCfg := machine.Config{
		Cache:     cb.opts.Cache,
		DepthMiss: cb.opts.DepthMiss,
		DepthHit:  cb.opts.DepthHit,
		MaxSteps:  c.cfg.MaxSteps,
	}
	for pi, pair := range c.cfg.SecretPairs {
		label := fmt.Sprintf("%s secrets=%d/%d", cb.label, pair[0], pair[1])
		diverged, err := machine.SecretDivergence(c.prog, simCfg, pair[0], pair[1], c.tnt.SecretIndexed)
		if err != nil {
			c.violate(Violation{Property: Crash, Config: label, Detail: fmt.Sprintf("secret-pair replay failed: %v", err)})
			return
		}
		c.res.Traces += 2
		for _, id := range diverged {
			if leaked[id] {
				continue
			}
			line := 0
			if a, ok := rep.Analysis.Access[id]; ok {
				line = a.Instr.Line
			}
			c.violate(Violation{
				Property: LeakCompleteness, Config: label, InstrID: id, Line: line,
				Detail: fmt.Sprintf("secret-indexed access diverges between secret assignments (pair %d) but is not reported as a leak", pi),
			})
		}
	}
}

// checkWindowMonotone asserts the metamorphic window relation: a larger
// speculation window explores a superset of wrong-path instructions, so no
// lane-analyzed instruction and no reported Spectre gadget may disappear
// when the window grows.
func (c *checker) checkWindowMonotone(small, large *sidechannel.Report) {
	label := fmt.Sprintf("window %d->%d", c.cfg.WindowPair[0], c.cfg.WindowPair[1])
	for id := range small.Analysis.SpecAccess {
		if _, ok := large.Analysis.SpecAccess[id]; !ok {
			c.violate(Violation{Property: WindowMonotone, Config: label, InstrID: id,
				Detail: "instruction lane-analyzed under the small window but not the large one"})
		}
	}
	largeGadgets := map[int]bool{}
	for _, l := range large.SpectreLeaks {
		largeGadgets[l.InstrID] = true
	}
	for _, l := range small.SpectreLeaks {
		if !largeGadgets[l.InstrID] {
			c.violate(Violation{Property: WindowMonotone, Config: label, InstrID: l.InstrID, Line: l.Line,
				Detail: "Spectre gadget reported under the small window disappeared under the large one"})
		}
	}
}

// checkUnrollMonotone asserts the metamorphic unroll relation at speculation
// depth 0, where concrete traces are identical across unroll levels (no
// wrong path exists, and unrolling preserves architectural semantics):
//
//   - cross-IR soundness: a line proved always-hit under the reduced unroll
//     must hit on every concrete access of the fully-unrolled execution;
//   - no flip: a line proved always-hit under the reduced unroll must not
//     be proved always-miss (at an executed access) under the full unroll.
func (c *checker) checkUnrollMonotone(sres, lres *core.Result) {
	label := fmt.Sprintf("unroll %d->default", c.cfg.SmallUnroll)

	// A line is must-hit when it has accesses and all of them are
	// always-hit; with inlining several instructions share a line, and one
	// concrete access instance corresponds to some instruction at the line.
	mustHitLine := map[int]bool{}
	for _, a := range sres.Access {
		l := a.Instr.Line
		if _, seen := mustHitLine[l]; !seen {
			mustHitLine[l] = true
		}
		if a.Class != cache.AlwaysHit {
			mustHitLine[l] = false
		}
	}
	lineOf := map[int]int{}
	missAt := map[int]bool{} // large-IR instrs classified always-miss
	for id, a := range lres.Access {
		lineOf[id] = a.Instr.Line
		missAt[id] = a.Class == cache.AlwaysMiss
	}

	simCfg := machine.Config{
		Cache:    c.baseOpts().Cache,
		MaxSteps: c.cfg.MaxSteps,
	}
	sim, err := machine.New(lres.Prog, simCfg)
	if err != nil {
		c.violate(Violation{Property: Crash, Config: label, Detail: fmt.Sprintf("simulator: %v", err)})
		return
	}
	c.res.Traces++
	sim.OnAccess = func(r machine.AccessRecord) {
		if r.Speculative || len(c.res.Violations) >= c.cfg.MaxViolations {
			return
		}
		l := lineOf[r.InstrID]
		if !mustHitLine[l] {
			return
		}
		if !r.Hit {
			c.violate(Violation{Property: UnrollMonotone, Config: label, InstrID: r.InstrID, Line: l,
				Detail: fmt.Sprintf("line proved always-hit at MaxUnroll=%d but missed concretely under full unrolling", c.cfg.SmallUnroll)})
		}
		if missAt[r.InstrID] {
			c.violate(Violation{Property: UnrollMonotone, Config: label, InstrID: r.InstrID, Line: l,
				Detail: fmt.Sprintf("line proved always-hit at MaxUnroll=%d but always-miss under full unrolling", c.cfg.SmallUnroll)})
		}
	}
	if err := sim.Run(); err != nil {
		c.violate(Violation{Property: Crash, Config: label, Detail: fmt.Sprintf("simulation failed: %v", err)})
	}
}
