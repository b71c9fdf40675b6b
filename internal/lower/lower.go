// Package lower translates a checked MiniC AST into the register-machine IR.
//
// Lowering performs three transformations the analyses rely on:
//
//  1. Whole-program inlining: every call is expanded at its call site (the
//     front end rejects recursion), producing a single-function program —
//     the paper analyzes whole programs the same way.
//  2. Full unrolling of constant-trip-count loops (§6.3 of the paper:
//     "loops with fixed iteration number will be fully unrolled; only
//     unresolved loops will be widened"), bounded by Options.MaxUnroll.
//  3. Short-circuit lowering of && and || into explicit control flow, which
//     matches what a C compiler emits and exposes the extra branches to the
//     speculation analysis.
//
// Memory-resident variables (the default) become IR Symbols accessed through
// Load/Store; `reg`-qualified scalars live in virtual registers and generate
// no memory traffic, mirroring the paper's `reg` annotations (Fig. 2).
package lower

import (
	"fmt"

	"specabsint/internal/ir"
	"specabsint/internal/irverify"
	"specabsint/internal/source"
)

// Options configures lowering.
type Options struct {
	// MaxUnroll is the largest constant trip count that will be fully
	// unrolled. Loops above the cap (and loops containing break/continue)
	// are left intact for the widening-based fixpoint.
	MaxUnroll int
}

// DefaultOptions returns the standard lowering configuration.
func DefaultOptions() Options {
	return Options{MaxUnroll: 4096}
}

// maxInlineDepth caps the call-inlining depth as a safety net (the checker
// already rejects recursion).
const maxInlineDepth = 64

// Lower compiles a checked program to IR starting at main and verifies the
// result: every Lower output passes irverify before any analysis consumes
// it.
func Lower(prog *source.Program, opts Options) (*ir.Program, error) {
	if opts.MaxUnroll == 0 {
		opts.MaxUnroll = DefaultOptions().MaxUnroll
	}
	lw := &lowerer{
		src:  prog,
		bd:   ir.NewBuilder("main"),
		opts: opts,
	}
	p, err := lw.run()
	if err != nil {
		return nil, err
	}
	if verr := irverify.Verify(p); verr != nil {
		return nil, fmt.Errorf("lowering produced structurally invalid IR: %w", verr)
	}
	return p, nil
}

type bindKind int

const (
	bindMem bindKind = iota
	bindReg
)

type binding struct {
	kind bindKind
	sym  ir.SymbolID // for bindMem
	reg  ir.Reg      // for bindReg
	decl *source.VarDecl
}

type loopCtx struct {
	breakTo    ir.BlockID
	continueTo ir.BlockID
}

type lowerer struct {
	src  *source.Program
	bd   *ir.Builder
	opts Options

	scopes []map[string]binding
	loops  []loopCtx

	// inlining state
	inlineDepth int
	retBlock    ir.BlockID
	retReg      ir.Reg
	nameSeq     int
}

func (lw *lowerer) run() (*ir.Program, error) {
	lw.pushScope()
	for _, g := range lw.src.Globals {
		if err := lw.declareGlobal(g); err != nil {
			return nil, err
		}
	}
	mainFn := lw.src.Func("main")
	entry := lw.bd.NewBlock("entry")
	lw.bd.SetBlock(entry)

	// main's parameters (if any) become uninitialized memory variables;
	// reg-qualified parameters are read straight from the register file and
	// count as input registers for the def-before-use verifier.
	lw.pushScope()
	for _, p := range mainFn.Params {
		b, err := lw.declareLocal(p)
		if err != nil {
			return nil, err
		}
		if b.kind == bindReg {
			lw.bd.MarkInputReg(b.reg)
		}
	}
	lw.retBlock = lw.bd.NewBlock("main.ret")
	lw.retReg = lw.bd.NewReg()
	if err := lw.lowerBlock(mainFn.Body); err != nil {
		return nil, err
	}
	if !lw.bd.Terminated() {
		lw.bd.Mov(lw.retReg, ir.ConstVal(0))
		lw.bd.Br(lw.retBlock)
	}
	lw.bd.SetBlock(lw.retBlock)
	lw.bd.Ret(ir.RegVal(lw.retReg))
	lw.popScope()
	lw.popScope()
	return lw.bd.Finish(entry), nil
}

func (lw *lowerer) pushScope() { lw.scopes = append(lw.scopes, map[string]binding{}) }
func (lw *lowerer) popScope()  { lw.scopes = lw.scopes[:len(lw.scopes)-1] }

func (lw *lowerer) bind(name string, b binding) { lw.scopes[len(lw.scopes)-1][name] = b }

func (lw *lowerer) lookup(name string) (binding, bool) {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if b, ok := lw.scopes[i][name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

func (lw *lowerer) declareGlobal(g *source.VarDecl) error {
	init, err := constInitData(g)
	if err != nil {
		return err
	}
	n := 1
	if g.Type.IsArray {
		n = g.Type.Len
	}
	sym := lw.bd.AddSymbol(g.Name, g.Type.Base.Size(), n, g.Secret, init)
	lw.bind(g.Name, binding{kind: bindMem, sym: sym, decl: g})
	return nil
}

// constInitData evaluates a global's initializer to concrete data.
func constInitData(g *source.VarDecl) ([]int64, error) {
	if g.Type.IsArray {
		if g.InitArr == nil {
			return nil, nil
		}
		data := make([]int64, 0, len(g.InitArr))
		for _, e := range g.InitArr {
			v, err := source.EvalConst(e)
			if err != nil {
				return nil, fmt.Errorf("global %q: initializer must be constant: %w", g.Name, err)
			}
			data = append(data, v)
		}
		return data, nil
	}
	if g.Init == nil {
		return nil, nil
	}
	v, err := source.EvalConst(g.Init)
	if err != nil {
		return nil, fmt.Errorf("global %q: initializer must be constant: %w", g.Name, err)
	}
	return []int64{v}, nil
}

// uniqueName derives a program-unique symbol name for an inlined or shadowed
// local.
func (lw *lowerer) uniqueName(base string) string {
	lw.nameSeq++
	return fmt.Sprintf("%s#%d", base, lw.nameSeq)
}

func (lw *lowerer) declareLocal(d *source.VarDecl) (binding, error) {
	var b binding
	if d.Storage == source.InReg {
		b = binding{kind: bindReg, reg: lw.bd.NewReg(), decl: d}
		if d.Secret {
			lw.bd.MarkSecretReg(b.reg)
		}
	} else {
		n := 1
		if d.Type.IsArray {
			n = d.Type.Len
		}
		name := d.Name
		if _, shadowed := lw.lookup(d.Name); shadowed || len(lw.scopes) > 2 {
			name = lw.uniqueName(d.Name)
		}
		sym := lw.bd.AddSymbol(name, d.Type.Base.Size(), n, d.Secret, nil)
		b = binding{kind: bindMem, sym: sym, decl: d}
	}
	lw.bind(d.Name, b)
	return b, nil
}

func (lw *lowerer) lowerBlock(b *source.BlockStmt) error {
	lw.pushScope()
	defer lw.popScope()
	for _, s := range b.Stmts {
		if err := lw.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) lowerStmt(s source.Stmt) error {
	lw.bd.SetLine(s.StmtPos().Line)
	switch st := s.(type) {
	case *source.BlockStmt:
		return lw.lowerBlock(st)
	case *source.DeclStmt:
		return lw.lowerDecl(st.Decl)
	case *source.AssignStmt:
		return lw.lowerAssign(st)
	case *source.ExprStmt:
		_, err := lw.lowerExpr(st.X)
		return err
	case *source.IfStmt:
		return lw.lowerIf(st)
	case *source.WhileStmt:
		return lw.lowerWhile(st)
	case *source.ForStmt:
		return lw.lowerFor(st)
	case *source.BreakStmt:
		if len(lw.loops) == 0 {
			return fmt.Errorf("%s: break outside loop", st.Pos)
		}
		lw.bd.Br(lw.loops[len(lw.loops)-1].breakTo)
		return nil
	case *source.ContinueStmt:
		if len(lw.loops) == 0 {
			return fmt.Errorf("%s: continue outside loop", st.Pos)
		}
		lw.bd.Br(lw.loops[len(lw.loops)-1].continueTo)
		return nil
	case *source.FenceStmt:
		lw.bd.Fence()
		return nil
	case *source.ReturnStmt:
		if st.X != nil {
			v, err := lw.lowerExpr(st.X)
			if err != nil {
				return err
			}
			lw.bd.Mov(lw.retReg, v)
		} else {
			lw.bd.Mov(lw.retReg, ir.ConstVal(0))
		}
		lw.bd.Br(lw.retBlock)
		return nil
	}
	return fmt.Errorf("lower: unknown statement %T", s)
}

func (lw *lowerer) lowerDecl(d *source.VarDecl) error {
	b, err := lw.declareLocal(d)
	if err != nil {
		return err
	}
	if b.kind == bindReg && d.Init == nil {
		// An uninitialized `reg` variable (e.g. Fig. 2's `secret reg int k`)
		// is legitimately read before any write: it models an input held in
		// the zero-initialized register file.
		lw.bd.MarkInputReg(b.reg)
	}
	if d.Type.IsArray {
		for i, e := range d.InitArr {
			v, err := lw.lowerExpr(e)
			if err != nil {
				return err
			}
			lw.bd.Store(b.sym, ir.ConstVal(int64(i)), v)
		}
		return nil
	}
	if d.Init != nil {
		v, err := lw.lowerExpr(d.Init)
		if err != nil {
			return err
		}
		lw.storeScalar(b, v)
	}
	return nil
}

func (lw *lowerer) storeScalar(b binding, v ir.Value) {
	if b.kind == bindReg {
		lw.bd.Mov(b.reg, v)
		return
	}
	lw.bd.Store(b.sym, ir.ConstVal(0), v)
}

func (lw *lowerer) lowerAssign(st *source.AssignStmt) error {
	switch lhs := st.LHS.(type) {
	case *source.IdentExpr:
		b, ok := lw.lookup(lhs.Name)
		if !ok {
			return fmt.Errorf("%s: undeclared %q", lhs.Pos, lhs.Name)
		}
		v, err := lw.lowerExpr(st.RHS)
		if err != nil {
			return err
		}
		lw.storeScalar(b, v)
		return nil
	case *source.IndexExpr:
		b, ok := lw.lookup(lhs.Arr.Name)
		if !ok {
			return fmt.Errorf("%s: undeclared %q", lhs.Pos, lhs.Arr.Name)
		}
		idx, err := lw.lowerExpr(lhs.Index)
		if err != nil {
			return err
		}
		v, err := lw.lowerExpr(st.RHS)
		if err != nil {
			return err
		}
		lw.bd.Store(b.sym, idx, v)
		return nil
	}
	return fmt.Errorf("%s: bad assignment target", st.Pos)
}

func (lw *lowerer) lowerIf(st *source.IfStmt) error {
	thenBB := lw.bd.NewBlock("")
	joinBB := lw.bd.NewBlock("")
	elseBB := joinBB
	if st.Else != nil {
		elseBB = lw.bd.NewBlock("")
	}
	if err := lw.lowerCondJump(st.Cond, thenBB, elseBB); err != nil {
		return err
	}
	lw.bd.SetBlock(thenBB)
	if err := lw.lowerBlock(st.Then); err != nil {
		return err
	}
	if !lw.bd.Terminated() {
		lw.bd.Br(joinBB)
	}
	if st.Else != nil {
		lw.bd.SetBlock(elseBB)
		if err := lw.lowerBlock(st.Else); err != nil {
			return err
		}
		if !lw.bd.Terminated() {
			lw.bd.Br(joinBB)
		}
	}
	lw.bd.SetBlock(joinBB)
	return nil
}

func (lw *lowerer) lowerWhile(st *source.WhileStmt) error {
	headBB := lw.bd.NewBlock("")
	bodyBB := lw.bd.NewBlock("")
	exitBB := lw.bd.NewBlock("")
	lw.bd.Br(headBB)
	lw.bd.SetBlock(headBB)
	if err := lw.lowerCondJump(st.Cond, bodyBB, exitBB); err != nil {
		return err
	}
	lw.loops = append(lw.loops, loopCtx{breakTo: exitBB, continueTo: headBB})
	lw.bd.SetBlock(bodyBB)
	if err := lw.lowerBlock(st.Body); err != nil {
		return err
	}
	if !lw.bd.Terminated() {
		lw.bd.Br(headBB)
	}
	lw.loops = lw.loops[:len(lw.loops)-1]
	lw.bd.SetBlock(exitBB)
	return nil
}

func (lw *lowerer) lowerFor(st *source.ForStmt) error {
	lw.pushScope()
	defer lw.popScope()
	if n, ok := lw.constTripCount(st); ok && n <= lw.opts.MaxUnroll {
		return lw.unrollFor(st, n)
	}
	if st.Init != nil {
		if err := lw.lowerStmt(st.Init); err != nil {
			return err
		}
	}
	headBB := lw.bd.NewBlock("")
	bodyBB := lw.bd.NewBlock("")
	postBB := lw.bd.NewBlock("")
	exitBB := lw.bd.NewBlock("")
	lw.bd.Br(headBB)
	lw.bd.SetBlock(headBB)
	if st.Cond != nil {
		if err := lw.lowerCondJump(st.Cond, bodyBB, exitBB); err != nil {
			return err
		}
	} else {
		lw.bd.Br(bodyBB)
	}
	lw.loops = append(lw.loops, loopCtx{breakTo: exitBB, continueTo: postBB})
	lw.bd.SetBlock(bodyBB)
	if err := lw.lowerBlock(st.Body); err != nil {
		return err
	}
	if !lw.bd.Terminated() {
		lw.bd.Br(postBB)
	}
	lw.loops = lw.loops[:len(lw.loops)-1]
	lw.bd.SetBlock(postBB)
	if st.Post != nil {
		if err := lw.lowerStmt(st.Post); err != nil {
			return err
		}
	}
	lw.bd.Br(headBB)
	lw.bd.SetBlock(exitBB)
	return nil
}

// unrollFor emits n copies of the loop body with the post statement between
// copies. The induction variable updates are kept so its final value is
// correct after the loop.
func (lw *lowerer) unrollFor(st *source.ForStmt, n int) error {
	if st.Init != nil {
		if err := lw.lowerStmt(st.Init); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		if err := lw.lowerBlock(st.Body); err != nil {
			return err
		}
		if lw.bd.Terminated() {
			// A return inside the body ends the program; remaining copies
			// are dead.
			return nil
		}
		if st.Post != nil {
			if err := lw.lowerStmt(st.Post); err != nil {
				return err
			}
		}
	}
	return nil
}

// constTripCount recognizes for-loops of the shape
//
//	for (i = c0; i <op> c1; i += c2)  (or i -= c2, i++, i--)
//
// whose body does not contain break/continue/return and does not reassign
// the induction variable, and returns the exact trip count.
func (lw *lowerer) constTripCount(st *source.ForStmt) (int, bool) {
	if st.Init == nil || st.Cond == nil || st.Post == nil {
		return 0, false
	}
	var ivName string
	var c0 int64
	switch init := st.Init.(type) {
	case *source.DeclStmt:
		if init.Decl.Type.IsArray || init.Decl.Init == nil {
			return 0, false
		}
		v, err := source.EvalConst(init.Decl.Init)
		if err != nil {
			return 0, false
		}
		ivName, c0 = init.Decl.Name, v
	case *source.AssignStmt:
		id, ok := init.LHS.(*source.IdentExpr)
		if !ok {
			return 0, false
		}
		v, err := source.EvalConst(init.RHS)
		if err != nil {
			return 0, false
		}
		ivName, c0 = id.Name, v
	default:
		return 0, false
	}

	cond, ok := st.Cond.(*source.BinaryExpr)
	if !ok {
		return 0, false
	}
	condVar, ok := cond.L.(*source.IdentExpr)
	if !ok || condVar.Name != ivName {
		return 0, false
	}
	c1, err := source.EvalConst(cond.R)
	if err != nil {
		return 0, false
	}

	post, ok := st.Post.(*source.AssignStmt)
	if !ok {
		return 0, false
	}
	postVar, ok := post.LHS.(*source.IdentExpr)
	if !ok || postVar.Name != ivName {
		return 0, false
	}
	step, ok := stepOf(post.RHS, ivName)
	if !ok || step == 0 {
		return 0, false
	}

	var n int64
	switch cond.Op {
	case source.Lt:
		if step <= 0 || c0 >= c1 {
			return 0, false
		}
		n = (c1 - c0 + step - 1) / step
	case source.Le:
		if step <= 0 || c0 > c1 {
			return 0, false
		}
		n = (c1-c0)/step + 1
	case source.Gt:
		if step >= 0 || c0 <= c1 {
			return 0, false
		}
		n = (c0 - c1 - step - 1) / -step
	case source.Ge:
		if step >= 0 || c0 < c1 {
			return 0, false
		}
		n = (c0-c1)/-step + 1
	default:
		return 0, false
	}
	if n <= 0 || n > int64(lw.opts.MaxUnroll) {
		return 0, false
	}
	if bodyBlocksUnrolling(st.Body, ivName) {
		return 0, false
	}
	return int(n), true
}

// stepOf matches `iv + c` / `iv - c` and returns the signed step.
func stepOf(e source.Expr, iv string) (int64, bool) {
	b, ok := e.(*source.BinaryExpr)
	if !ok {
		return 0, false
	}
	l, ok := b.L.(*source.IdentExpr)
	if !ok || l.Name != iv {
		return 0, false
	}
	c, err := source.EvalConst(b.R)
	if err != nil {
		return 0, false
	}
	switch b.Op {
	case source.Plus:
		return c, true
	case source.Minus:
		return -c, true
	}
	return 0, false
}

// bodyBlocksUnrolling reports whether the body contains a statement that
// makes flat unrolling unsafe.
func bodyBlocksUnrolling(b *source.BlockStmt, iv string) bool {
	unsafe := false
	var walk func(s source.Stmt, loopDepth int)
	walk = func(s source.Stmt, loopDepth int) {
		switch st := s.(type) {
		case *source.BlockStmt:
			for _, inner := range st.Stmts {
				walk(inner, loopDepth)
			}
		case *source.BreakStmt, *source.ContinueStmt:
			if loopDepth == 0 {
				unsafe = true
			}
		case *source.ReturnStmt:
			// allowed: lowering stops emitting copies after a return
		case *source.AssignStmt:
			if id, ok := st.LHS.(*source.IdentExpr); ok && id.Name == iv {
				unsafe = true
			}
		case *source.DeclStmt:
			if st.Decl.Name == iv {
				unsafe = true // shadowing would confuse the trip analysis
			}
		case *source.IfStmt:
			walk(st.Then, loopDepth)
			if st.Else != nil {
				walk(st.Else, loopDepth)
			}
		case *source.WhileStmt:
			walk(st.Body, loopDepth+1)
		case *source.ForStmt:
			if st.Init != nil {
				walk(st.Init, loopDepth)
			}
			if st.Post != nil {
				walk(st.Post, loopDepth)
			}
			walk(st.Body, loopDepth+1)
		}
	}
	walk(b, 0)
	return unsafe
}

func (lw *lowerer) lowerExpr(e source.Expr) (ir.Value, error) {
	switch x := e.(type) {
	case *source.NumberExpr:
		return ir.ConstVal(x.Val), nil
	case *source.IdentExpr:
		b, ok := lw.lookup(x.Name)
		if !ok {
			return ir.Value{}, fmt.Errorf("%s: undeclared %q", x.Pos, x.Name)
		}
		if b.kind == bindReg {
			return ir.RegVal(b.reg), nil
		}
		if b.decl.Type.IsArray {
			return ir.Value{}, fmt.Errorf("%s: array %q used as scalar", x.Pos, x.Name)
		}
		return ir.RegVal(lw.bd.Load(b.sym, ir.ConstVal(0))), nil
	case *source.IndexExpr:
		b, ok := lw.lookup(x.Arr.Name)
		if !ok {
			return ir.Value{}, fmt.Errorf("%s: undeclared %q", x.Pos, x.Arr.Name)
		}
		idx, err := lw.lowerExpr(x.Index)
		if err != nil {
			return ir.Value{}, err
		}
		return ir.RegVal(lw.bd.Load(b.sym, idx)), nil
	case *source.UnaryExpr:
		v, err := lw.lowerExpr(x.X)
		if err != nil {
			return ir.Value{}, err
		}
		switch x.Op {
		case source.Minus:
			return ir.RegVal(lw.bd.Unop(ir.OpNeg, v)), nil
		case source.Tilde:
			return ir.RegVal(lw.bd.Unop(ir.OpNot, v)), nil
		case source.Not:
			return ir.RegVal(lw.bd.Binop(ir.OpCmpEq, v, ir.ConstVal(0))), nil
		}
		return ir.Value{}, fmt.Errorf("%s: bad unary op %s", x.Pos, x.Op)
	case *source.BinaryExpr:
		l, err := lw.lowerExpr(x.L)
		if err != nil {
			return ir.Value{}, err
		}
		r, err := lw.lowerExpr(x.R)
		if err != nil {
			return ir.Value{}, err
		}
		op, ok := binOpOf(x.Op)
		if !ok {
			return ir.Value{}, fmt.Errorf("%s: bad binary op %s", x.Pos, x.Op)
		}
		return ir.RegVal(lw.bd.Binop(op, l, r)), nil
	case *source.CondExpr:
		// Materialize the short-circuit result as 0/1 through control flow.
		res := lw.bd.NewReg()
		tBB := lw.bd.NewBlock("")
		fBB := lw.bd.NewBlock("")
		join := lw.bd.NewBlock("")
		if err := lw.lowerCondJump(x, tBB, fBB); err != nil {
			return ir.Value{}, err
		}
		lw.bd.SetBlock(tBB)
		lw.bd.Mov(res, ir.ConstVal(1))
		lw.bd.Br(join)
		lw.bd.SetBlock(fBB)
		lw.bd.Mov(res, ir.ConstVal(0))
		lw.bd.Br(join)
		lw.bd.SetBlock(join)
		return ir.RegVal(res), nil
	case *source.CallExpr:
		return lw.lowerCall(x)
	}
	return ir.Value{}, fmt.Errorf("lower: unknown expression %T", e)
}

func binOpOf(k source.Kind) (ir.Op, bool) {
	switch k {
	case source.Plus:
		return ir.OpAdd, true
	case source.Minus:
		return ir.OpSub, true
	case source.Star:
		return ir.OpMul, true
	case source.Slash:
		return ir.OpDiv, true
	case source.Percent:
		return ir.OpRem, true
	case source.Amp:
		return ir.OpAnd, true
	case source.Pipe:
		return ir.OpOr, true
	case source.Caret:
		return ir.OpXor, true
	case source.Shl:
		return ir.OpShl, true
	case source.Shr:
		return ir.OpShr, true
	case source.Lt:
		return ir.OpCmpLt, true
	case source.Le:
		return ir.OpCmpLe, true
	case source.Gt:
		return ir.OpCmpGt, true
	case source.Ge:
		return ir.OpCmpGe, true
	case source.EqEq:
		return ir.OpCmpEq, true
	case source.NotEq:
		return ir.OpCmpNe, true
	}
	return 0, false
}

// lowerCondJump lowers a boolean expression directly into control flow.
func (lw *lowerer) lowerCondJump(e source.Expr, tBB, fBB ir.BlockID) error {
	switch x := e.(type) {
	case *source.CondExpr:
		if x.Op == source.AndAnd {
			mid := lw.bd.NewBlock("")
			if err := lw.lowerCondJump(x.L, mid, fBB); err != nil {
				return err
			}
			lw.bd.SetBlock(mid)
			return lw.lowerCondJump(x.R, tBB, fBB)
		}
		mid := lw.bd.NewBlock("")
		if err := lw.lowerCondJump(x.L, tBB, mid); err != nil {
			return err
		}
		lw.bd.SetBlock(mid)
		return lw.lowerCondJump(x.R, tBB, fBB)
	case *source.UnaryExpr:
		if x.Op == source.Not {
			return lw.lowerCondJump(x.X, fBB, tBB)
		}
	}
	v, err := lw.lowerExpr(e)
	if err != nil {
		return err
	}
	lw.bd.CondBr(v, tBB, fBB)
	return nil
}

// lowerCall inlines the callee at the call site.
func (lw *lowerer) lowerCall(call *source.CallExpr) (ir.Value, error) {
	f := lw.src.Func(call.Name)
	if f == nil {
		return ir.Value{}, fmt.Errorf("%s: call to unknown function %q", call.Pos, call.Name)
	}
	if lw.inlineDepth >= maxInlineDepth {
		return ir.Value{}, fmt.Errorf("%s: inline depth exceeded at call to %q", call.Pos, call.Name)
	}
	// Evaluate arguments in the caller's scope.
	args := make([]ir.Value, len(call.Args))
	for i, a := range call.Args {
		v, err := lw.lowerExpr(a)
		if err != nil {
			return ir.Value{}, err
		}
		args[i] = v
	}

	lw.inlineDepth++
	savedRetBlock, savedRetReg := lw.retBlock, lw.retReg
	lw.retBlock = lw.bd.NewBlock(lw.uniqueName(call.Name + ".ret"))
	lw.retReg = lw.bd.NewReg()

	// Callee scope: parameters become fresh variables initialized to args.
	lw.pushScope()
	for i, p := range f.Params {
		pd := *p // copy so the unique name does not leak between inlines
		b, err := lw.declareLocal(&pd)
		if err != nil {
			return ir.Value{}, err
		}
		lw.storeScalar(b, args[i])
	}
	if err := lw.lowerBlock(f.Body); err != nil {
		return ir.Value{}, err
	}
	if !lw.bd.Terminated() {
		lw.bd.Mov(lw.retReg, ir.ConstVal(0))
		lw.bd.Br(lw.retBlock)
	}
	lw.popScope()

	lw.bd.SetBlock(lw.retBlock)
	result := lw.retReg
	lw.retBlock, lw.retReg = savedRetBlock, savedRetReg
	lw.inlineDepth--
	return ir.RegVal(result), nil
}
