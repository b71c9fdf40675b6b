package machine

import (
	"errors"
	"fmt"

	"specabsint/internal/ir"
	"specabsint/internal/layout"
)

// ErrOutOfBounds is returned when an architectural memory access falls
// outside its symbol. On a wrong path the same fault squashes the
// speculation instead.
var ErrOutOfBounds = errors.New("machine: memory access out of bounds")

// ErrDivideByZero is returned for an architectural division or remainder
// by zero.
var ErrDivideByZero = errors.New("machine: division by zero")

// ErrStepLimit is returned when architectural execution exceeds
// Config.MaxSteps.
var ErrStepLimit = errors.New("machine: step limit exceeded")

// The cycle estimate charges BaseLatency per architectural instruction,
// plus HitLatency per architectural data-cache hit and MissPenalty per
// architectural data-cache or instruction-cache miss. Wrong-path work costs
// no cycles.
const (
	BaseLatency = 1
	HitLatency  = 1
	MissPenalty = 100
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

// Simulator executes a program instruction by instruction, with
// speculative wrong-path execution whose cache side effects persist across
// rollback — the behaviour the paper's analysis must soundly
// over-approximate.
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

// state is a complete machine state: the register file, memory, and the
// next instruction. A mispredicted branch runs its wrong path on a deep
// copy, so rolling back is dropping the copy.
type state struct {
	regs  []int64
	mem   [][]int64 // indexed by SymbolID, then element
	block ir.BlockID
	ip    int // index of the next instruction within block
	done  bool
}

// clone deep-copies the state: the checkpoint a wrong path runs on.
func (st *state) clone() *state {
	c := &state{
		regs:  append([]int64(nil), st.regs...),
		mem:   make([][]int64, len(st.mem)),
		block: st.block,
		ip:    st.ip,
		done:  st.done,
	}
	for i, m := range st.mem {
		c.mem[i] = append([]int64(nil), m...)
	}
	return c
}

func (st *state) value(v ir.Value) int64 {
	if v.IsConst {
		return v.Const
	}
	return st.regs[v.Reg]
}

// follow continues at the start of the true target of in, a Br or CondBr,
// when taken, else at its false target.
func (st *state) follow(in *ir.Instr, taken bool) {
	st.block, st.ip = in.FalseTarget, 0
	if taken {
		st.block = in.TrueTarget
	}
}

// newState builds the initial state: registers and memory zeroed, symbol
// initializers applied, then Config.Inputs and Config.RegInputs preloaded.
func (s *Simulator) newState() (*state, error) {
	st := &state{
		regs:  make([]int64, s.Prog.NumRegs),
		mem:   make([][]int64, len(s.Prog.Symbols)),
		block: s.Prog.Entry,
	}
	for i, sym := range s.Prog.Symbols {
		st.mem[i] = make([]int64, sym.Len)
		copy(st.mem[i], sym.Init)
	}
	for name, v := range s.Cfg.Inputs {
		sym := s.Prog.SymbolByName(name)
		if sym == nil {
			return nil, fmt.Errorf("machine: input %q: no such symbol", name)
		}
		if sym.Len != 1 {
			return nil, fmt.Errorf("machine: input %q: not a scalar", name)
		}
		st.mem[sym.ID][0] = v
	}
	for r, v := range s.Cfg.RegInputs {
		if int(r) < 0 || int(r) >= s.Prog.NumRegs {
			return nil, fmt.Errorf("machine: register input %s out of range", r)
		}
		st.regs[r] = v
	}
	return st, nil
}

// instr returns the instruction st executes next.
func (s *Simulator) instr(st *state) *ir.Instr {
	return &s.Prog.Blocks[st.block].Instrs[st.ip]
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
		s.Stats.Cycles += MissPenalty
	}
	if s.OnFetch != nil {
		s.OnFetch(AccessRecord{InstrID: in.ID, Block: b, Hit: hit, Speculative: speculative})
	}
}

// maxOOBReach bounds the out-of-bounds index a wrong path follows, so that
// computing its address cannot overflow.
const maxOOBReach = int64(1) << 40

// locate bounds-checks an access of element elem of in's symbol and returns
// the element it touches. On a wrong path with Config.WrongPathOOB set, an
// out-of-bounds index reads or writes whatever element sits at the computed
// address, as real hardware does (Spectre v1); only an address outside the
// program's address space faults there.
func (s *Simulator) locate(in *ir.Instr, elem int64, speculative bool) (ir.SymbolID, int64, error) {
	sym := s.Prog.Symbol(in.Sym)
	if elem >= 0 && elem < int64(sym.Len) {
		return in.Sym, elem, nil
	}
	if speculative && s.Cfg.WrongPathOOB && elem <= maxOOBReach && elem >= -maxOOBReach {
		if addr := s.Layout.AddrOfElem(in.Sym, elem); addr >= 0 && addr < s.Layout.AddressSpaceEnd() {
			if id, e, ok := s.Layout.AddrToElem(addr); ok {
				return id, e, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("%w: access %s[%d] (len %d)", ErrOutOfBounds, sym.Name, elem, sym.Len)
}

// access performs the cache access of one memory instruction to element
// elem of sym, which differs from in.Sym when a wrong-path out-of-bounds
// index reached another symbol.
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
			s.Stats.Cycles += HitLatency
		} else {
			s.Stats.Misses++
			s.Stats.Cycles += MissPenalty
			s.missedSince = true
		}
	}
	if s.OnAccess != nil {
		s.OnAccess(AccessRecord{InstrID: in.ID, Block: b, Hit: hit, Speculative: speculative})
	}
}

// Run executes the program to completion.
func (s *Simulator) Run() error {
	st, err := s.newState()
	if err != nil {
		return err
	}
	for !st.done {
		if s.Stats.Instructions >= s.Cfg.MaxSteps {
			return ErrStepLimit
		}
		in := s.instr(st)
		// Fetch before the branch predicts: the wrong path starts with the
		// branch already in the instruction cache.
		s.fetch(in, false)
		s.Stats.Instructions++
		s.Stats.Cycles += BaseLatency
		if err := s.step(st, in, false); err != nil {
			return err
		}
	}
	return nil
}

// step executes in, the instruction st is at, on the architectural path or
// on a wrong path (speculative). An architectural conditional branch is
// predicted before it resolves, and a mispredicted one runs its wrong path
// first. A fault returns ErrOutOfBounds or ErrDivideByZero.
func (s *Simulator) step(st *state, in *ir.Instr, speculative bool) error {
	st.ip++
	switch in.Op {
	case ir.OpNop, ir.OpFence:
		// A fence is architecturally a no-op; speculate stops a wrong path
		// before one.
	case ir.OpConst, ir.OpMov:
		st.regs[in.Dst] = st.value(in.A)
	case ir.OpNeg, ir.OpNot, ir.OpBool:
		st.regs[in.Dst] = ir.EvalUnop(in.Op, st.value(in.A))
	case ir.OpLoad, ir.OpStore:
		sym, elem, err := s.locate(in, st.value(in.Idx), speculative)
		if err != nil {
			return err
		}
		s.access(in, sym, elem, speculative)
		if in.Op == ir.OpLoad {
			st.regs[in.Dst] = st.mem[sym][elem]
		} else {
			st.mem[sym][elem] = st.value(in.A)
		}
	case ir.OpBr:
		st.follow(in, true)
	case ir.OpCondBr:
		taken := st.value(in.A) != 0
		if in.Resolved {
			// The pass pipeline emitted an unconditional jump here: no
			// prediction, no wrong path, and a wrong path follows the taken
			// edge too. Architecturally, an outcome that disagrees with the
			// recorded direction is the simulator's tripwire on the
			// pipeline's proof: folding was unsound.
			if !speculative && taken != in.TakenTrue {
				return fmt.Errorf("machine: resolved branch at instr %d (line %d) would go %v architecturally, but passes fixed it %v",
					in.ID, in.Line, taken, in.TakenTrue)
			}
			taken = in.TakenTrue
		} else if !speculative {
			s.predict(st, in, taken)
		}
		st.follow(in, taken)
	case ir.OpRet:
		if !speculative {
			s.Stats.Ret = st.value(in.A)
		}
		st.done = true
	default:
		v, ok := ir.EvalBinop(in.Op, st.value(in.A), st.value(in.B))
		if !ok {
			return ErrDivideByZero
		}
		st.regs[in.Dst] = v
	}
	return nil
}

// predict predicts the architectural conditional branch in, whose outcome
// is taken, and on a misprediction runs the predicted path as a wrong path
// before the branch resolves.
func (s *Simulator) predict(st *state, in *ir.Instr, taken bool) {
	s.Stats.Branches++
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
			s.speculate(st, in, predicted, depth)
			s.Stats.Rollbacks++
		}
	}
	// The branch resolves; the next condition starts clean.
	s.missedSince = false
}

// speculate executes the wrong path from the branch on a cloned state. The
// register and memory effects are discarded on return (the rollback), but
// every cache access performed along the way persists in s.Cache — that is
// precisely the side channel. A fault (out-of-bounds, division by zero), a
// fence, and program exit squash the speculation early. Speculative stores
// allocate cache lines (write-allocate at issue) but their values live only
// in the cloned memory, so rollback discards them.
func (s *Simulator) speculate(st *state, branch *ir.Instr, predicted bool, depth int) {
	wp := st.clone()
	wp.follow(branch, predicted)
	for i := 0; i < depth && !wp.done; i++ {
		in := s.instr(wp)
		if in.Op == ir.OpFence {
			// A fence reaching execute kills all in-flight speculation: the
			// wrong path stops here, before the fence's successors issue.
			s.Stats.SpecFences++
			break
		}
		s.fetch(in, true)
		if s.step(wp, in, true) != nil {
			break // a fault on the wrong path squashes it
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
