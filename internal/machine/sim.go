package machine

import (
	"errors"
	"fmt"

	"specabsint/internal/interp"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
)

// Config configures the speculative simulator.
type Config struct {
	Cache layout.CacheConfig
	// Predictor chooses branch targets; nil defaults to NewTwoBit().
	Predictor Predictor
	// DepthMiss / DepthHit bound the wrong-path window in instructions,
	// depending on whether a load missed since the last branch (a proxy for
	// "the condition is waiting on memory"). These mirror the analysis
	// bounds b_m / b_h.
	DepthMiss int
	DepthHit  int
	// ForceMispredict makes every branch mispredict, maximizing wrong-path
	// pollution (used by worst-case experiments and the Fig. 2 replay).
	ForceMispredict bool
	// WrongPathOOB models real hardware on mis-speculated out-of-bounds
	// accesses: instead of faulting, the access reads whatever memory sits
	// at the computed address (the Spectre v1 ingredient). Accesses outside
	// the program's entire address space still squash the speculation.
	WrongPathOOB bool
	// ICache, when non-nil, simulates an instruction cache of that geometry:
	// every executed instruction (architectural or wrong-path) fetches its
	// code block. Architectural fetch misses are charged MissPenalty cycles.
	ICache *layout.CacheConfig
	// HitLatency / MissPenalty / BaseLatency feed the cycle estimate.
	HitLatency  int64
	MissPenalty int64
	BaseLatency int64
	// MaxSteps bounds architectural execution.
	MaxSteps int64
	// Inputs preloads named memory-resident scalars (main parameters,
	// secret-tagged variables, uninitialized globals) before execution, so
	// one program can be replayed across concrete input vectors. The
	// analyses treat exactly these cells as unknown, which makes any such
	// assignment a trace the abstract result must over-approximate.
	// Register-resident (`reg`) variables are not addressable here.
	Inputs map[string]int64
	// RegInputs preloads virtual registers before execution — the
	// register-file analogue of Inputs, for varying `reg`-resident values
	// (including `secret reg` declarations, which Inputs cannot reach)
	// across replays. Registers outside the program's range are rejected.
	RegInputs map[ir.Reg]int64
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{
		Cache:        layout.PaperConfig(),
		Predictor:    NewTwoBit(),
		DepthMiss:    200,
		DepthHit:     20,
		WrongPathOOB: true,
		HitLatency:   1,
		MissPenalty:  100,
		BaseLatency:  1,
		MaxSteps:     50_000_000,
	}
}

// Stats aggregates one run.
type Stats struct {
	Instructions     int64
	SpecInstructions int64
	Hits             int64 // architectural
	Misses           int64 // architectural
	SpecHits         int64 // wrong-path (invisible architecturally)
	SpecMisses       int64
	Branches         int64
	Mispredicts      int64
	Rollbacks        int64
	// SpecFences counts wrong-path executions squashed by reaching a fence.
	SpecFences int64
	Cycles     int64
	Ret        int64
	// Instruction-cache counters (zero unless Config.ICache is set).
	IFetchHits       int64
	IFetchMisses     int64
	SpecIFetchHits   int64
	SpecIFetchMisses int64
}

// String summarizes the stats.
func (s Stats) String() string {
	return fmt.Sprintf("instrs=%d hits=%d misses=%d specMisses=%d branches=%d mispredicts=%d cycles=%d",
		s.Instructions, s.Hits, s.Misses, s.SpecMisses, s.Branches, s.Mispredicts, s.Cycles)
}

// AccessRecord describes one observed memory access.
type AccessRecord struct {
	InstrID     int
	Block       layout.BlockID
	Hit         bool
	Speculative bool
}

// Simulator executes a program with speculative wrong-path execution whose
// cache side effects persist across rollback — the behaviour the paper's
// analysis must soundly over-approximate.
type Simulator struct {
	Prog   *ir.Program
	Layout *layout.Layout
	Cfg    Config
	Cache  *CacheSim
	Stats  Stats
	// OnAccess, if set, observes every access (architectural and
	// speculative).
	OnAccess func(AccessRecord)
	// OnFetch, if set, observes every instruction fetch when an i-cache is
	// simulated.
	OnFetch func(AccessRecord)

	// ICacheSim is the simulated instruction cache (nil unless configured).
	ICacheSim   *CacheSim
	fetchBlocks []layout.BlockID

	m           *interp.Machine
	missedSince bool // a load missed since the last branch resolved
}

// New creates a simulator.
func New(prog *ir.Program, cfg Config) (*Simulator, error) {
	if cfg.Predictor == nil {
		cfg.Predictor = NewTwoBit()
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultConfig().MaxSteps
	}
	l, err := layout.New(prog, cfg.Cache)
	if err != nil {
		return nil, err
	}
	sim := &Simulator{
		Prog:   prog,
		Layout: l,
		Cfg:    cfg,
		Cache:  NewCacheSim(cfg.Cache, l.NumBlocks),
		m:      interp.NewMachine(prog),
	}
	if cfg.ICache != nil {
		code, blocks, err := layout.CodeLayout(prog, *cfg.ICache)
		if err != nil {
			return nil, err
		}
		sim.ICacheSim = NewCacheSim(*cfg.ICache, code.NumBlocks)
		sim.fetchBlocks = blocks
	}
	return sim, nil
}

// fetch simulates the instruction fetch of in.
func (s *Simulator) fetch(in *ir.Instr, speculative bool) {
	if s.ICacheSim == nil {
		return
	}
	b := s.fetchBlocks[in.ID]
	hit := s.ICacheSim.Access(b)
	switch {
	case speculative && hit:
		s.Stats.SpecIFetchHits++
	case speculative:
		s.Stats.SpecIFetchMisses++
	case hit:
		s.Stats.IFetchHits++
	default:
		s.Stats.IFetchMisses++
		s.Stats.Cycles += s.Cfg.MissPenalty
	}
	if s.OnFetch != nil {
		s.OnFetch(AccessRecord{InstrID: in.ID, Block: b, Hit: hit, Speculative: speculative})
	}
}

// access performs the cache access for one memory instruction. sym may
// differ from in.Sym when a wrong-path out-of-bounds access was redirected.
func (s *Simulator) access(in *ir.Instr, sym ir.SymbolID, elem int64, speculative bool) {
	b := s.Layout.BlockOfElem(sym, elem)
	hit := s.Cache.Access(b)
	if speculative {
		if hit {
			s.Stats.SpecHits++
		} else {
			s.Stats.SpecMisses++
		}
	} else {
		if hit {
			s.Stats.Hits++
			s.Stats.Cycles += s.Cfg.HitLatency
		} else {
			s.Stats.Misses++
			s.Stats.Cycles += s.Cfg.MissPenalty
			s.missedSince = true
		}
	}
	if s.OnAccess != nil {
		s.OnAccess(AccessRecord{InstrID: in.ID, Block: b, Hit: hit, Speculative: speculative})
	}
}

// Run executes the program to completion.
func (s *Simulator) Run() error {
	st := s.m.NewState()
	for name, v := range s.Cfg.Inputs {
		sym := s.Prog.SymbolByName(name)
		if sym == nil {
			return fmt.Errorf("machine: input %q: no such symbol", name)
		}
		if sym.Len != 1 {
			return fmt.Errorf("machine: input %q: not a scalar", name)
		}
		st.Mem[sym.ID][0] = v
	}
	for r, v := range s.Cfg.RegInputs {
		if int(r) < 0 || int(r) >= s.Prog.NumRegs {
			return fmt.Errorf("machine: register input %s out of range", r)
		}
		st.Regs[r] = v
	}

	// One hook set per path kind, built once: the wrong-path excursion swaps
	// them in speculate and Run swaps back, instead of allocating a closure
	// pair per architectural instruction.
	archHooks := interp.Hooks{
		OnMem: func(in *ir.Instr, sym ir.SymbolID, elem int64, isStore bool) {
			s.access(in, sym, elem, false)
		},
	}
	specHooks := interp.Hooks{
		OnMem: func(in *ir.Instr, sym ir.SymbolID, elem int64, isStore bool) {
			s.access(in, sym, elem, true)
		},
	}

	s.m.Hooks = archHooks
	for !st.Done {
		if st.Steps >= s.Cfg.MaxSteps {
			return interp.ErrStepLimit
		}
		in := s.m.CurrentInstr(st)
		// Fetch before resolving/speculating: the wrong path starts with
		// the branch already in the instruction cache.
		s.fetch(in, false)
		if in.Op == ir.OpCondBr && in.Resolved {
			// The pass pipeline emitted this as an unconditional jump: no
			// prediction, no misprediction, no speculation. The tripwire
			// below is the simulator's check on the pipeline's proof — a
			// resolved branch whose architectural outcome disagrees with the
			// recorded direction means folding was unsound.
			if condTaken(st, in) != in.TakenTrue {
				return fmt.Errorf("machine: resolved branch at instr %d (line %d) would go %v architecturally, but passes fixed it %v",
					in.ID, in.Line, condTaken(st, in), in.TakenTrue)
			}
		} else if in.Op == ir.OpCondBr {
			s.Stats.Branches++
			taken := condTaken(st, in)
			predicted := s.Cfg.Predictor.Predict(in.ID)
			if s.Cfg.ForceMispredict {
				predicted = !taken
			}
			s.Cfg.Predictor.Update(in.ID, taken)
			if predicted != taken {
				s.Stats.Mispredicts++
				depth := s.Cfg.DepthHit
				if s.missedSince {
					depth = s.Cfg.DepthMiss
				}
				if depth > 0 {
					s.speculate(st, in, predicted, depth, specHooks)
					s.m.Hooks = archHooks
					s.Stats.Rollbacks++
				}
			}
			// The branch resolves; the next condition starts clean.
			s.missedSince = false
		}
		s.Stats.Instructions++
		s.Stats.Cycles += s.Cfg.BaseLatency
		if err := s.m.Step(st); err != nil {
			return err
		}
	}
	s.Stats.Ret = st.Ret
	return nil
}

// condTaken evaluates a CondBr's outcome without executing it.
func condTaken(st *interp.State, in *ir.Instr) bool {
	if in.A.IsConst {
		return in.A.Const != 0
	}
	return st.Regs[in.A.Reg] != 0
}

// speculate executes the wrong path from the branch on a cloned state. The
// register and memory effects are discarded on return (the rollback), but
// every cache access performed along the way persists in s.Cache — that is
// precisely the side channel. Faults (out-of-bounds, division by zero) and
// program exit squash the speculation early. Speculative stores allocate
// cache lines (write-allocate at issue) but their values live only in the
// cloned memory, so rollback discards them.
func (s *Simulator) speculate(st *interp.State, branch *ir.Instr, predicted bool, depth int, hooks interp.Hooks) {
	clone := st.Clone()
	if predicted {
		clone.Block = branch.TrueTarget
	} else {
		clone.Block = branch.FalseTarget
	}
	clone.IP = 0
	s.m.Hooks = hooks
	if s.Cfg.WrongPathOOB {
		s.m.ResolveOOB = func(sym ir.SymbolID, elem int64) (ir.SymbolID, int64, bool) {
			const lim = int64(1) << 40
			if elem > lim || elem < -lim {
				return 0, 0, false
			}
			addr := s.Layout.AddrOfElem(sym, elem)
			if addr < 0 || addr >= s.Layout.AddressSpaceEnd() {
				return 0, 0, false
			}
			return s.Layout.AddrToElem(addr)
		}
		defer func() { s.m.ResolveOOB = nil }()
	}
	for i := 0; i < depth && !clone.Done; i++ {
		in := s.m.CurrentInstr(clone)
		if in.Op == ir.OpFence {
			// A fence reaching execute kills all in-flight speculation: the
			// wrong path stops here, before the fence's successors issue.
			s.Stats.SpecFences++
			break
		}
		s.fetch(in, true)
		if err := s.m.Step(clone); err != nil {
			if errors.Is(err, interp.ErrOutOfBounds) || errors.Is(err, interp.ErrDivideByZero) {
				break // fault on the wrong path: squash
			}
			break
		}
		s.Stats.SpecInstructions++
	}
}

// RunProgram is a convenience wrapper: simulate prog under cfg and return
// the stats.
func RunProgram(prog *ir.Program, cfg Config) (Stats, error) {
	sim, err := New(prog, cfg)
	if err != nil {
		return Stats{}, err
	}
	err = sim.Run()
	return sim.Stats, err
}
