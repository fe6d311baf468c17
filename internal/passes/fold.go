package passes

import (
	"math"

	"repro/internal/ir"
)

// Fold performs constant folding and algebraic simplification, mirroring
// the cleanup a production compiler applies before instrumentation (the
// paper's LLVM pipeline). It folds operations whose operands are constants
// and applies safe identities (x+0, x*1, x*0, x&0, x|0, x^0, x<<0, phi with
// identical inputs, branches on constant conditions). Run before Mem2Reg or
// after; it only requires SSA uses to be rewritable.
func Fold(f *ir.Func) {
	changed := true
	for changed {
		changed = false
		replace := make(map[*ir.Instr]ir.Value)

		f.Instrs(func(in *ir.Instr) bool {
			if v := foldInstr(in); v != nil {
				replace[in] = v
				changed = true
			}
			return true
		})
		if len(replace) > 0 {
			// Rewrite uses (chase chains so a->b->c resolves fully).
			resolve := func(v ir.Value) ir.Value {
				for {
					in, ok := v.(*ir.Instr)
					if !ok {
						return v
					}
					r, ok := replace[in]
					if !ok {
						return v
					}
					v = r
				}
			}
			f.Instrs(func(in *ir.Instr) bool {
				for i, a := range in.Args {
					in.Args[i] = resolve(a)
				}
				return true
			})
			// Drop the folded instructions.
			for _, b := range f.Blocks {
				kept := b.Instrs[:0]
				for _, in := range b.Instrs {
					if _, dead := replace[in]; !dead {
						kept = append(kept, in)
					}
				}
				b.Instrs = kept
			}
		}
		if simplifyBranches(f) {
			changed = true
		}
	}
	f.Renumber()
	f.ComputeCFG()
}

// foldInstr returns a replacement value for in, or nil.
func foldInstr(in *ir.Instr) ir.Value {
	if in.Op == ir.OpPhi {
		// Phi with all-identical inputs collapses to that input.
		if len(in.Args) == 0 {
			return nil
		}
		first := in.Args[0]
		for _, a := range in.Args[1:] {
			if !sameValue(a, first) {
				return nil
			}
		}
		if first == in {
			return nil
		}
		return first
	}
	if !in.Op.IsArith() || in.Op == ir.OpIntrinsic {
		return nil
	}

	c0, ok0 := constOf(in.Args[0])
	var c1 *ir.Const
	ok1 := false
	if len(in.Args) > 1 {
		c1, ok1 = constOf(in.Args[1])
	}

	// Full constant folding.
	if ok0 && (len(in.Args) == 1 || ok1) {
		return foldConst(in, c0, c1)
	}

	// Algebraic identities with one constant operand.
	if in.Ty != ir.I64 {
		return nil // float identities are unsafe (-0, NaN)
	}
	x := in.Args[0]
	switch in.Op {
	case ir.OpAdd, ir.OpOr, ir.OpXor:
		if ok1 && c1.Int() == 0 {
			return x
		}
		if ok0 && c0.Int() == 0 {
			return in.Args[1]
		}
	case ir.OpSub, ir.OpShl, ir.OpShr:
		if ok1 && c1.Int() == 0 {
			return x
		}
	case ir.OpMul:
		if ok1 {
			switch c1.Int() {
			case 0:
				return ir.ConstInt(0)
			case 1:
				return x
			}
		}
		if ok0 {
			switch c0.Int() {
			case 0:
				return ir.ConstInt(0)
			case 1:
				return in.Args[1]
			}
		}
	case ir.OpAnd:
		if (ok1 && c1.Int() == 0) || (ok0 && c0.Int() == 0) {
			return ir.ConstInt(0)
		}
		if ok1 && c1.Int() == -1 {
			return x
		}
		if ok0 && c0.Int() == -1 {
			return in.Args[1]
		}
	case ir.OpDiv:
		if ok1 && c1.Int() == 1 {
			return x
		}
	}
	return nil
}

func constOf(v ir.Value) (*ir.Const, bool) {
	c, ok := v.(*ir.Const)
	return c, ok
}

func sameValue(a, b ir.Value) bool {
	if a == b {
		return true
	}
	ca, oka := a.(*ir.Const)
	cb, okb := b.(*ir.Const)
	return oka && okb && ca.Ty == cb.Ty && ca.Bits == cb.Bits
}

// foldConst evaluates an all-constant operation. Division by zero and other
// trapping cases return nil (the trap must still happen at runtime).
func foldConst(in *ir.Instr, c0, c1 *ir.Const) ir.Value {
	if in.Ty == ir.F64 && in.Op != ir.OpFToI {
		a := c0.Float()
		var b float64
		if c1 != nil {
			b = c1.Float()
		}
		switch in.Op {
		case ir.OpAdd:
			return &ir.Const{Ty: ir.F64, Bits: ir.NaNFirst(c0.Bits, math.Float64bits(a+b))}
		case ir.OpSub:
			return ir.ConstFloat(a - b)
		case ir.OpMul:
			return &ir.Const{Ty: ir.F64, Bits: ir.NaNFirst(c0.Bits, math.Float64bits(a*b))}
		case ir.OpDiv:
			return ir.ConstFloat(a / b)
		case ir.OpNeg:
			return ir.ConstFloat(-a)
		case ir.OpIToF:
			return ir.ConstFloat(float64(c0.Int()))
		}
		return nil
	}

	x := c0.Int()
	var y int64
	if c1 != nil {
		y = c1.Int()
	}
	switch in.Op {
	case ir.OpAdd:
		return ir.ConstInt(x + y)
	case ir.OpSub:
		return ir.ConstInt(x - y)
	case ir.OpMul:
		return ir.ConstInt(x * y)
	case ir.OpDiv:
		if y == 0 || (x == math.MinInt64 && y == -1) {
			return nil
		}
		return ir.ConstInt(x / y)
	case ir.OpRem:
		if y == 0 || (x == math.MinInt64 && y == -1) {
			return nil
		}
		return ir.ConstInt(x % y)
	case ir.OpAnd:
		return ir.ConstInt(x & y)
	case ir.OpOr:
		return ir.ConstInt(x | y)
	case ir.OpXor:
		return ir.ConstInt(x ^ y)
	case ir.OpShl:
		return ir.ConstInt(x << uint(y&63))
	case ir.OpShr:
		return ir.ConstInt(x >> uint(y&63))
	case ir.OpNeg:
		return ir.ConstInt(-x)
	case ir.OpFToI:
		f := c0.Float()
		if math.IsNaN(f) || f >= math.MaxInt64 || f <= math.MinInt64 {
			return nil // keep runtime saturation semantics out of the folder
		}
		return ir.ConstInt(int64(f))
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		var cond bool
		if c0.Ty == ir.F64 {
			a, b := c0.Float(), c1.Float()
			switch in.Op {
			case ir.OpEq:
				cond = a == b
			case ir.OpNe:
				cond = a != b
			case ir.OpLt:
				cond = a < b
			case ir.OpLe:
				cond = a <= b
			case ir.OpGt:
				cond = a > b
			case ir.OpGe:
				cond = a >= b
			}
		} else {
			switch in.Op {
			case ir.OpEq:
				cond = x == y
			case ir.OpNe:
				cond = x != y
			case ir.OpLt:
				cond = x < y
			case ir.OpLe:
				cond = x <= y
			case ir.OpGt:
				cond = x > y
			case ir.OpGe:
				cond = x >= y
			}
		}
		if cond {
			return ir.ConstInt(1)
		}
		return ir.ConstInt(0)
	}
	return nil
}

// simplifyBranches converts conditional branches on constants into jumps
// and prunes the dead edge's phi entries, then removes newly unreachable
// blocks.
func simplifyBranches(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		c, ok := t.Args[0].(*ir.Const)
		if !ok {
			continue
		}
		taken, dead := t.Then, t.Else
		if c.Int() == 0 {
			taken, dead = t.Else, t.Then
		}
		// Rewrite to an unconditional jump.
		t.Op = ir.OpJmp
		t.Args = nil
		t.Then = taken
		t.Else = nil
		changed = true
		if dead != taken {
			// Prune this predecessor's phi edges in the dead target.
			for _, phi := range dead.Phis() {
				for i := len(phi.Preds) - 1; i >= 0; i-- {
					if phi.Preds[i] == b {
						phi.Args = append(phi.Args[:i], phi.Args[i+1:]...)
						phi.Preds = append(phi.Preds[:i], phi.Preds[i+1:]...)
					}
				}
			}
		} else {
			// br c, X, X carried two phi edges from b; the jump carries one.
			for _, phi := range taken.Phis() {
				for i := len(phi.Preds) - 1; i >= 0; i-- {
					if phi.Preds[i] == b {
						phi.Args = append(phi.Args[:i], phi.Args[i+1:]...)
						phi.Preds = append(phi.Preds[:i], phi.Preds[i+1:]...)
						break // remove exactly one duplicate edge
					}
				}
			}
		}
	}
	if changed {
		f.ComputeCFG()
		RemoveUnreachable(f)
	}
	return changed
}
