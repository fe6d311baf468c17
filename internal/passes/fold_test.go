package passes

import (
	"testing"

	"repro/internal/ir"
)

// foldFunc builds main(){ out[0] = expr } with expr constructed by build,
// folds, and returns the function.
func foldFunc(t *testing.T, build func(b *ir.Builder) ir.Value) *ir.Func {
	t.Helper()
	m := ir.NewModule("fold")
	out := m.AddGlobal("out", 1)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	v := build(b)
	b.Store(out, v)
	b.Ret(nil)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	Fold(f)
	DCE(f)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatalf("post-fold verify: %v", err)
	}
	return f
}

func countArith(f *ir.Func) int {
	n := 0
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op.IsArith() {
			n++
		}
		return true
	})
	return n
}

func storedConst(t *testing.T, f *ir.Func) *ir.Const {
	t.Helper()
	var c *ir.Const
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpStore {
			c, _ = in.Args[1].(*ir.Const)
			return false
		}
		return true
	})
	if c == nil {
		t.Fatalf("store operand is not a constant:\n%s", f.Dump())
	}
	return c
}

func TestFoldConstantExpression(t *testing.T) {
	f := foldFunc(t, func(b *ir.Builder) ir.Value {
		x := b.Bin(ir.OpAdd, ir.ConstInt(2), ir.ConstInt(3))
		y := b.Bin(ir.OpMul, x, ir.ConstInt(4))
		return b.Bin(ir.OpSub, y, ir.ConstInt(1)) // (2+3)*4-1 = 19
	})
	if got := storedConst(t, f).Int(); got != 19 {
		t.Fatalf("folded to %d, want 19", got)
	}
	if n := countArith(f); n != 0 {
		t.Fatalf("%d arith instructions survived", n)
	}
}

func TestFoldIdentities(t *testing.T) {
	m := ir.NewModule("ids")
	in := m.AddGlobal("in", 1)
	out := m.AddGlobal("out", 1)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	x := b.Load(ir.I64, in)
	v := b.Bin(ir.OpAdd, x, ir.ConstInt(0)) // x
	v = b.Bin(ir.OpMul, v, ir.ConstInt(1))  // x
	v = b.Bin(ir.OpXor, v, ir.ConstInt(0))  // x
	v = b.Bin(ir.OpShl, v, ir.ConstInt(0))  // x
	b.Store(out, v)
	b.Ret(nil)
	m.Renumber()
	Fold(f)
	DCE(f)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if n := countArith(f); n != 0 {
		t.Fatalf("identities not folded, %d arith remain:\n%s", n, f.Dump())
	}
	// The store must now use the load directly.
	f.Instrs(func(in2 *ir.Instr) bool {
		if in2.Op == ir.OpStore {
			if ld, ok := in2.Args[1].(*ir.Instr); !ok || ld.Op != ir.OpLoad {
				t.Fatalf("store operand is not the load: %s", in2.LongString())
			}
		}
		return true
	})
}

func TestFoldMulByZero(t *testing.T) {
	m := ir.NewModule("z")
	in := m.AddGlobal("in", 1)
	out := m.AddGlobal("out", 1)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	x := b.Load(ir.I64, in)
	v := b.Bin(ir.OpMul, x, ir.ConstInt(0))
	b.Store(out, v)
	b.Ret(nil)
	m.Renumber()
	Fold(f)
	DCE(f)
	m.Renumber()
	if c := storedConst(t, f); c.Int() != 0 {
		t.Fatalf("x*0 folded to %d", c.Int())
	}
}

func TestFoldDoesNotFoldDivByZero(t *testing.T) {
	f := foldFunc(t, func(b *ir.Builder) ir.Value {
		return b.Bin(ir.OpDiv, ir.ConstInt(5), ir.ConstInt(0))
	})
	div := 0
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpDiv {
			div++
		}
		return true
	})
	if div != 1 {
		t.Fatal("trapping division was folded away")
	}
}

func TestFoldConstantBranch(t *testing.T) {
	m := ir.NewModule("cb")
	out := m.AddGlobal("out", 1)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	thenB := b.Block("then")
	elseB := b.Block("else")
	join := b.Block("join")
	b.Br(ir.ConstInt(1), thenB, elseB)

	b.SetBlock(thenB)
	b.Jmp(join)
	b.SetBlock(elseB)
	b.Jmp(join)

	b.SetBlock(join)
	phi := b.Phi(ir.I64)
	ir.AddIncoming(phi, ir.ConstInt(10), thenB)
	ir.AddIncoming(phi, ir.ConstInt(20), elseB)
	b.Store(out, phi)
	b.Ret(nil)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}

	Fold(f)
	DCE(f)
	m.Renumber()
	if err := m.Verify(); err != nil {
		t.Fatalf("post-fold verify: %v\n%s", err, f.Dump())
	}
	// else block is unreachable and removed; the phi collapses to 10.
	if len(f.Blocks) != 3 { // entry, then, join
		t.Fatalf("blocks = %d:\n%s", len(f.Blocks), f.Dump())
	}
	if got := storedConst(t, f).Int(); got != 10 {
		t.Fatalf("folded branch stored %d, want 10", got)
	}
}

func TestFoldFloatConstants(t *testing.T) {
	f := foldFunc(t, func(b *ir.Builder) ir.Value {
		x := b.Bin(ir.OpMul, ir.ConstFloat(2.5), ir.ConstFloat(4))
		return b.Bin(ir.OpAdd, x, ir.ConstFloat(0.5)) // 10.5
	})
	if got := storedConst(t, f).Float(); got != 10.5 {
		t.Fatalf("folded to %v", got)
	}
}

func TestFoldPreservesFloatIdentityHazards(t *testing.T) {
	// x + 0.0 must NOT fold (x = -0.0 gives +0.0).
	m := ir.NewModule("fh")
	in := m.AddGlobal("in", 1)
	out := m.AddGlobal("out", 1)
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	x := b.Load(ir.F64, in)
	v := b.Bin(ir.OpAdd, x, ir.ConstFloat(0))
	b.Store(out, v)
	b.Ret(nil)
	m.Renumber()
	Fold(f)
	m.Renumber()
	adds := 0
	f.Instrs(func(in2 *ir.Instr) bool {
		if in2.Op == ir.OpAdd {
			adds++
		}
		return true
	})
	if adds != 1 {
		t.Fatal("float x+0.0 was folded (unsound for -0.0)")
	}
}

// TestFoldFloatNaNIsFirstOperand folds an addition and a multiplication of
// two NaN constants with different payloads and signs: each must fold to
// the first operand's NaN, quieted, the result the VM computes at run time
// (ir.NaNFirst), whatever operand order the compiler picked for a + b.
func TestFoldFloatNaNIsFirstOperand(t *testing.T) {
	const (
		nanA = 0x7FF0000000000001 // signaling, payload 1
		nanB = 0xFFF8000000000002 // quiet, negative, payload 2
	)
	for _, op := range []ir.Op{ir.OpAdd, ir.OpMul} {
		for _, c := range []struct{ first, second, want uint64 }{
			{nanA, nanB, nanA | 1<<51},
			{nanB, nanA, nanB},
		} {
			f := foldFunc(t, func(b *ir.Builder) ir.Value {
				return b.Bin(op, &ir.Const{Ty: ir.F64, Bits: c.first}, &ir.Const{Ty: ir.F64, Bits: c.second})
			})
			if got := storedConst(t, f).Bits; got != c.want {
				t.Errorf("%v %#x, %#x folded to %#x, want %#x", op, c.first, c.second, got, c.want)
			}
		}
	}
}
