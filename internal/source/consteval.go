package source

import "fmt"

// EvalConst evaluates a compile-time constant expression (no identifiers,
// calls, or array indexing allowed).
func EvalConst(e Expr) (int64, error) {
	return evalConstEnv(e, nil)
}

// evalConstEnv evaluates with an optional environment for named constants.
func evalConstEnv(e Expr, env map[string]int64) (int64, error) {
	switch x := e.(type) {
	case *NumberExpr:
		return x.Val, nil
	case *IdentExpr:
		if env != nil {
			if v, ok := env[x.Name]; ok {
				return v, nil
			}
		}
		return 0, errf(x.Pos, "%q is not a compile-time constant", x.Name)
	case *UnaryExpr:
		v, err := evalConstEnv(x.X, env)
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
		l, err := evalConstEnv(x.L, env)
		if err != nil {
			return 0, err
		}
		r, err := evalConstEnv(x.R, env)
		if err != nil {
			return 0, err
		}
		v, err := EvalBinop(x.Op, l, r)
		if err != nil {
			return 0, errf(x.Pos, "%v", err)
		}
		return v, nil
	case *CondExpr:
		l, err := evalConstEnv(x.L, env)
		if err != nil {
			return 0, err
		}
		if x.Op == AndAnd {
			if l == 0 {
				return 0, nil
			}
			r, err := evalConstEnv(x.R, env)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		}
		if l != 0 {
			return 1, nil
		}
		r, err := evalConstEnv(x.R, env)
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

// EvalBinop applies a binary operator to two concrete values with C-like
// semantics on int64. Division and modulo by zero are errors.
func EvalBinop(op Kind, l, r int64) (int64, error) {
	switch op {
	case Plus:
		return l + r, nil
	case Minus:
		return l - r, nil
	case Star:
		return l * r, nil
	case Slash:
		if r == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return l / r, nil
	case Percent:
		if r == 0 {
			return 0, fmt.Errorf("modulo by zero")
		}
		return l % r, nil
	case Amp:
		return l & r, nil
	case Pipe:
		return l | r, nil
	case Caret:
		return l ^ r, nil
	case Shl:
		return l << (uint64(r) & 63), nil
	case Shr:
		return l >> (uint64(r) & 63), nil
	case Lt:
		return boolToInt(l < r), nil
	case Gt:
		return boolToInt(l > r), nil
	case Le:
		return boolToInt(l <= r), nil
	case Ge:
		return boolToInt(l >= r), nil
	case EqEq:
		return boolToInt(l == r), nil
	case NotEq:
		return boolToInt(l != r), nil
	}
	return 0, fmt.Errorf("unsupported binary operator %s", op)
}
