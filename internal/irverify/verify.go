// Package irverify is the one structural check of IR programs: lowering
// runs it on every program it builds, the pass pipeline on every program it
// transforms, and the fence synthesizer on every fenced program. It turns
// the invariants the analyses silently rely on into positioned diagnostics,
// so a lowering, unrolling, inlining, or pass-pipeline bug surfaces as
// "block X, instruction Y violates Z" instead of a corrupted classification
// three layers downstream (the differential fuzzer once found two lowering
// bugs only after they had poisoned results).
//
// Check families:
//
//   - program shape: entry in range, block/symbol ids match their indices,
//     instruction ids dense in layout order (Finalize discipline);
//   - terminator discipline: every block non-empty, exactly one terminator,
//     at the end, branch targets in range;
//   - operand/opcode arity: const-only operands where required, register
//     operands in range, Resolved markers only on conditional branches;
//   - symbol-and-index well-formedness: symbol ids valid, element sizes and
//     lengths positive, initializers no longer than the symbol, register
//     indices in range (constant out-of-bounds indices are runtime faults,
//     not structural corruption, and are left to the simulator);
//   - def-before-use on every path: a register read must be preceded by a
//     write on all paths from entry, except for input registers
//     (Program.InputRegs, seeded with SecretRegs) which model values in the
//     zero-initialized register file;
//   - speculative-flow invariants: every unresolved conditional branch has a
//     well-defined vn_stop (an immediate post-dominator distinct from the
//     branch, possibly the virtual exit), both lane targets exist, and
//     resolved branches name an in-range taken target — so every lane start
//     the engine derives has a matching stop and rollback target.
package irverify

import (
	"fmt"
	"strings"

	"specabsint/internal/cfg"
	"specabsint/internal/ir"
)

// Diagnostic is one verifier finding, positioned at a block and (where
// applicable) an instruction.
type Diagnostic struct {
	// Check names the violated check family (e.g. "def-before-use").
	Check string
	// Block / Label locate the offending block.
	Block ir.BlockID
	Label string
	// Instr is the instruction index within the block, -1 for block-level
	// findings; ID is the program-unique instruction id (-1 when absent).
	Instr int
	ID    int
	// Line is the originating source line (0 for synthesized instructions).
	Line int
	// Msg describes the violation.
	Msg string
}

// String renders the diagnostic with its position.
func (d Diagnostic) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%s] block %s", d.Check, d.Label)
	if d.Instr >= 0 {
		fmt.Fprintf(&sb, " instr %d", d.Instr)
		if d.ID >= 0 {
			fmt.Fprintf(&sb, " (id %d)", d.ID)
		}
	}
	if d.Line > 0 {
		fmt.Fprintf(&sb, " line %d", d.Line)
	}
	fmt.Fprintf(&sb, ": %s", d.Msg)
	return sb.String()
}

// Error aggregates a failed verification's diagnostics.
type Error struct {
	Diags []Diagnostic
}

// Error implements the error interface, listing up to eight diagnostics.
func (e *Error) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "irverify: %d violation(s)", len(e.Diags))
	for i, d := range e.Diags {
		if i == 8 {
			fmt.Fprintf(&sb, "\n  ... and %d more", len(e.Diags)-i)
			break
		}
		fmt.Fprintf(&sb, "\n  %s", d)
	}
	return sb.String()
}

// maxDiags caps collection so a thoroughly corrupted program does not
// produce an unbounded report.
const maxDiags = 64

// Verify checks prog against all invariant families. It returns nil when
// the program is clean and an *Error otherwise.
func Verify(prog *ir.Program) error {
	if diags := Diagnose(prog); len(diags) > 0 {
		return &Error{Diags: diags}
	}
	return nil
}

// Diagnose runs every check and returns all findings (possibly none), capped
// at an internal limit. Check families run in dependency order — shape, then
// symbols/blocks, then dataflow and speculative flows — and a failing family
// stops the later ones, which assume its invariants. The CFG the path-
// sensitive checks walk is derived from prog only after the block-level
// checks pass: cfg.New indexes blocks by branch target, so it must not see
// dangling edges.
func Diagnose(prog *ir.Program) []Diagnostic {
	v := &verifier{prog: prog}
	v.diags = verifyProgramShape(prog)
	if len(v.diags) > 0 {
		return v.diags
	}
	v.checkSymbols()
	v.checkBlocks()
	if len(v.diags) > 0 {
		return v.diags
	}
	v.g = cfg.New(prog)
	v.checkDefBeforeUse()
	v.checkSpecFlows()
	return v.diags
}

type verifier struct {
	prog  *ir.Program
	g     *cfg.Graph
	diags []Diagnostic
}

func (v *verifier) report(b *ir.Block, instr int, check, format string, args ...any) {
	if len(v.diags) >= maxDiags {
		return
	}
	d := Diagnostic{Check: check, Block: b.ID, Label: b.Label, Instr: instr, ID: -1, Msg: fmt.Sprintf(format, args...)}
	if instr >= 0 && instr < len(b.Instrs) {
		d.ID = b.Instrs[instr].ID
		d.Line = b.Instrs[instr].Line
	}
	v.diags = append(v.diags, d)
}

// verifyProgramShape checks the invariants everything else indexes by:
// blocks exist, ids equal indices, the entry is a block, and instruction ids
// are dense in layout order.
func verifyProgramShape(prog *ir.Program) []Diagnostic {
	var diags []Diagnostic
	top := func(format string, args ...any) {
		if len(diags) < maxDiags {
			diags = append(diags, Diagnostic{
				Check: "program", Block: -1, Label: "<program>", Instr: -1, ID: -1,
				Msg: fmt.Sprintf(format, args...),
			})
		}
	}
	if len(prog.Blocks) == 0 {
		top("program has no blocks")
		return diags
	}
	if int(prog.Entry) < 0 || int(prog.Entry) >= len(prog.Blocks) {
		top("entry block %d out of range [0,%d)", prog.Entry, len(prog.Blocks))
		return diags
	}
	id := 0
	for i, b := range prog.Blocks {
		if b == nil {
			top("block index %d is nil", i)
			return diags
		}
		if int(b.ID) != i {
			top("block %q has id %d at index %d", b.Label, b.ID, i)
		}
		for j := range b.Instrs {
			if b.Instrs[j].ID != id {
				top("block %q instr %d has id %d, want %d (Finalize not run or ids corrupted)",
					b.Label, j, b.Instrs[j].ID, id)
				return diags
			}
			id++
		}
	}
	if prog.NumInstrs != id {
		top("NumInstrs is %d but program has %d instructions", prog.NumInstrs, id)
	}
	return diags
}

// checkSymbols validates the symbol table: ids match indices, names are
// non-empty and unique, geometry is positive, initializers fit.
func (v *verifier) checkSymbols() {
	seen := make(map[string]ir.SymbolID, len(v.prog.Symbols))
	sym := func(i int, format string, args ...any) {
		if len(v.diags) < maxDiags {
			v.diags = append(v.diags, Diagnostic{
				Check: "symbol", Block: -1, Label: "<symbols>", Instr: -1, ID: -1,
				Msg: fmt.Sprintf("symbol %d: %s", i, fmt.Sprintf(format, args...)),
			})
		}
	}
	for i, s := range v.prog.Symbols {
		if s == nil {
			sym(i, "nil entry")
			continue
		}
		if int(s.ID) != i {
			sym(i, "id %d does not match index", s.ID)
		}
		if s.Name == "" {
			sym(i, "empty name")
		} else if prev, dup := seen[s.Name]; dup {
			sym(i, "name %q duplicates symbol %d", s.Name, prev)
		} else {
			seen[s.Name] = s.ID
		}
		if s.ElemSize <= 0 {
			sym(i, "non-positive element size %d", s.ElemSize)
		}
		if s.Len <= 0 {
			sym(i, "non-positive length %d", s.Len)
		}
		if len(s.Init) > s.Len {
			sym(i, "initializer has %d elements for length %d", len(s.Init), s.Len)
		}
	}
}

// checkBlocks enforces terminator discipline and per-instruction arity.
func (v *verifier) checkBlocks() {
	for _, b := range v.prog.Blocks {
		if len(b.Instrs) == 0 {
			v.report(b, -1, "terminator", "block is empty")
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			last := i == len(b.Instrs)-1
			if in.Op.IsTerminator() && !last {
				v.report(b, i, "terminator", "%s in the middle of the block", in.Op)
			}
			if last && !in.Op.IsTerminator() {
				v.report(b, i, "terminator", "block falls through (last op %s is not a terminator)", in.Op)
			}
			v.checkInstr(b, i, in)
		}
	}
}

// checkInstr validates one instruction's operand shape against its opcode.
func (v *verifier) checkInstr(b *ir.Block, i int, in *ir.Instr) {
	reg := func(what string, r ir.Reg) {
		if int(r) < 0 || int(r) >= v.prog.NumRegs {
			v.report(b, i, "operand", "%s register %s out of range [0,%d)", what, r, v.prog.NumRegs)
		}
	}
	use := func(what string, val ir.Value) {
		if !val.IsConst {
			reg(what, val.Reg)
		}
	}
	target := func(what string, t ir.BlockID) {
		if int(t) < 0 || int(t) >= len(v.prog.Blocks) {
			v.report(b, i, "terminator", "%s target %d out of range [0,%d)", what, t, len(v.prog.Blocks))
		}
	}
	if in.Resolved && in.Op != ir.OpCondBr {
		v.report(b, i, "operand", "%s carries a Resolved branch marker", in.Op)
	}
	switch in.Op {
	case ir.OpNop, ir.OpBr, ir.OpRet, ir.OpFence:
		// No destination register.
	default:
		if writesValue(in.Op) {
			reg("destination", in.Dst)
		}
	}
	switch in.Op {
	case ir.OpNop, ir.OpFence:
	case ir.OpConst:
		if !in.A.IsConst {
			v.report(b, i, "operand", "const operand is a register (%s)", in.A)
		}
	case ir.OpMov, ir.OpNeg, ir.OpNot, ir.OpBool, ir.OpRet:
		use("operand", in.A)
	case ir.OpLoad, ir.OpStore:
		if int(in.Sym) < 0 || int(in.Sym) >= len(v.prog.Symbols) {
			v.report(b, i, "symbol", "symbol id %d out of range [0,%d)", in.Sym, len(v.prog.Symbols))
		}
		use("index", in.Idx)
		if in.Op == ir.OpStore {
			use("value", in.A)
		}
	case ir.OpBr:
		target("branch", in.TrueTarget)
	case ir.OpCondBr:
		use("condition", in.A)
		target("true", in.TrueTarget)
		target("false", in.FalseTarget)
	default:
		if in.Op.IsBinop() {
			use("left", in.A)
			use("right", in.B)
		} else {
			v.report(b, i, "operand", "unknown opcode %s", in.Op)
		}
	}
}

func writesValue(op ir.Op) bool {
	switch op {
	case ir.OpStore, ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpNop, ir.OpFence:
		return false
	}
	return true
}
