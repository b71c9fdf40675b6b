package source

import "specabsint/internal/ir"

// EvalConst evaluates a compile-time constant expression (no identifiers,
// calls, or array indexing allowed).
func EvalConst(e Expr) (int64, error) {
	switch x := e.(type) {
	case *NumberExpr:
		return x.Val, nil
	case *IdentExpr:
		return 0, errf(x.Pos, "%q is not a compile-time constant", x.Name)
	case *UnaryExpr:
		v, err := EvalConst(x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case Minus:
			return -v, nil
		case Tilde:
			return ^v, nil
		case Not:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, errf(x.Pos, "unsupported constant unary operator %s", x.Op)
	case *BinaryExpr:
		l, err := EvalConst(x.L)
		if err != nil {
			return 0, err
		}
		r, err := EvalConst(x.R)
		if err != nil {
			return 0, err
		}
		op, ok := BinOp(x.Op)
		if !ok {
			return 0, errf(x.Pos, "unsupported binary operator %s", x.Op)
		}
		v, ok := ir.EvalBinop(op, l, r)
		if !ok {
			if x.Op == Percent {
				return 0, errf(x.Pos, "modulo by zero")
			}
			return 0, errf(x.Pos, "division by zero")
		}
		return v, nil
	case *CondExpr:
		l, err := EvalConst(x.L)
		if err != nil {
			return 0, err
		}
		if x.Op == AndAnd {
			if l == 0 {
				return 0, nil
			}
			r, err := EvalConst(x.R)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		}
		if l != 0 {
			return 1, nil
		}
		r, err := EvalConst(x.R)
		if err != nil {
			return 0, err
		}
		return boolToInt(r != 0), nil
	}
	return 0, errf(e.ExprPos(), "expression is not a compile-time constant")
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// BinOp returns the IR op that computes binary operator k, for each of
// MiniC's 16 arithmetic, bitwise, shift and comparison operators. Lowering
// emits it, and EvalConst evaluates it with ir.EvalBinop, so a constant
// expression folds to exactly what the program would compute at run time.
func BinOp(k Kind) (ir.Op, bool) {
	switch k {
	case Plus:
		return ir.OpAdd, true
	case Minus:
		return ir.OpSub, true
	case Star:
		return ir.OpMul, true
	case Slash:
		return ir.OpDiv, true
	case Percent:
		return ir.OpRem, true
	case Amp:
		return ir.OpAnd, true
	case Pipe:
		return ir.OpOr, true
	case Caret:
		return ir.OpXor, true
	case Shl:
		return ir.OpShl, true
	case Shr:
		return ir.OpShr, true
	case Lt:
		return ir.OpCmpLt, true
	case Le:
		return ir.OpCmpLe, true
	case Gt:
		return ir.OpCmpGt, true
	case Ge:
		return ir.OpCmpGe, true
	case EqEq:
		return ir.OpCmpEq, true
	case NotEq:
		return ir.OpCmpNe, true
	}
	return 0, false
}
