package machine

// Predictor models a branch prediction unit. Branches are identified by the
// program-unique instruction id of their CondBr.
type Predictor interface {
	// Predict guesses whether the branch will be taken.
	Predict(branchID int) bool
	// Update trains the predictor with the real outcome.
	Update(branchID int, taken bool)
	// Name identifies the predictor in reports.
	Name() string
}

// AlwaysTaken predicts every branch taken (static forward-taken policy).
type AlwaysTaken struct{}

// Predict always returns true.
func (AlwaysTaken) Predict(int) bool { return true }

// Update is a no-op.
func (AlwaysTaken) Update(int, bool) {}

// Name identifies the predictor.
func (AlwaysTaken) Name() string { return "always-taken" }

// NeverTaken predicts every branch not taken.
type NeverTaken struct{}

// Predict always returns false.
func (NeverTaken) Predict(int) bool { return false }

// Update is a no-op.
func (NeverTaken) Update(int, bool) {}

// Name identifies the predictor.
func (NeverTaken) Name() string { return "never-taken" }

// TwoBit is the classic per-branch two-bit saturating counter predictor.
type TwoBit struct {
	counters map[int]uint8 // 0..3; >=2 predicts taken
}

// NewTwoBit creates a two-bit predictor initialized to weakly taken.
func NewTwoBit() *TwoBit { return &TwoBit{counters: map[int]uint8{}} }

func (p *TwoBit) counter(id int) uint8 {
	if c, ok := p.counters[id]; ok {
		return c
	}
	return 2 // weakly taken
}

// Predict consults the branch's saturating counter.
func (p *TwoBit) Predict(id int) bool { return p.counter(id) >= 2 }

// Update saturates the counter toward the outcome.
func (p *TwoBit) Update(id int, taken bool) {
	c := p.counter(id)
	if taken && c < 3 {
		c++
	} else if !taken && c > 0 {
		c--
	}
	p.counters[id] = c
}

// Name identifies the predictor.
func (p *TwoBit) Name() string { return "2bit" }

// GShare is a global-history predictor: the branch id is XOR-folded with a
// global history register to index a table of two-bit counters.
type GShare struct {
	history uint32
	bits    uint32
	table   []uint8
}

// NewGShare creates a gshare predictor with 2^bits counters.
func NewGShare(bits uint32) *GShare {
	if bits == 0 || bits > 20 {
		bits = 12
	}
	return &GShare{bits: bits, table: make([]uint8, 1<<bits)}
}

func (p *GShare) index(id int) uint32 {
	mask := uint32(1)<<p.bits - 1
	return (uint32(id) ^ p.history) & mask
}

// Predict consults the indexed counter.
func (p *GShare) Predict(id int) bool { return p.table[p.index(id)] >= 2 }

// Update trains the counter and shifts the outcome into the history.
func (p *GShare) Update(id int, taken bool) {
	i := p.index(id)
	c := p.table[i]
	if taken && c < 3 {
		p.table[i] = c + 1
	} else if !taken && c > 0 {
		p.table[i] = c - 1
	}
	p.history <<= 1
	if taken {
		p.history |= 1
	}
}

// Name identifies the predictor.
func (p *GShare) Name() string { return "gshare" }

// Adversarial predicts the opposite of each branch's previous outcome. The
// simulator asks Predict before it calls Update with the outcome, so the
// prediction is wrong whenever a branch repeats its previous direction and
// right whenever the direction flips. It drives far more wrong paths than
// a 2-bit predictor on biased branches, for worst-case and side-channel
// experiments; Config.ForceMispredict is the mode that mispredicts every
// branch.
type Adversarial struct {
	last map[int]bool
}

// NewAdversarial creates the adversarial predictor.
func NewAdversarial() *Adversarial { return &Adversarial{last: map[int]bool{}} }

// Predict returns the opposite of the branch's last observed outcome
// (pessimistic: first encounter predicts taken).
func (p *Adversarial) Predict(id int) bool {
	if taken, ok := p.last[id]; ok {
		return !taken
	}
	return true
}

// Update records the outcome.
func (p *Adversarial) Update(id int, taken bool) { p.last[id] = taken }

// Name identifies the predictor.
func (p *Adversarial) Name() string { return "adversarial" }
