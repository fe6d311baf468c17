package ir

import (
	"fmt"
	"math"
)

// Value is anything usable as an instruction operand: constants, function
// parameters, globals (whose value is their base address) and instructions.
type Value interface {
	Type() Type
	// String returns a short operand-position rendering (e.g. "%5", "42").
	String() string
}

// Const is a compile-time constant. Bits holds the raw 64-bit pattern; for
// F64 it is the IEEE-754 encoding.
type Const struct {
	Ty   Type
	Bits uint64
}

// ConstInt returns an I64 constant.
func ConstInt(v int64) *Const { return &Const{Ty: I64, Bits: uint64(v)} }

// ConstFloat returns an F64 constant.
func ConstFloat(v float64) *Const { return &Const{Ty: F64, Bits: math.Float64bits(v)} }

// NaNFirst fixes the NaN that a float addition or multiplication of a and
// another operand returns: r is the computed result, and when a is a NaN
// the result is a, quieted, as if a were the hardware's first operand.
// Without it the result is not a function of the operands alone: when both
// operands are NaNs the hardware returns one of them, and which one depends
// on the operand order the compiler picks for a commutative operation,
// which can differ between two sites computing the same instruction (the
// constant folder, the fused and unfused handlers, the two engines) and
// between builds. No other case depends on the order. Small enough to
// inline into the VM's dispatch loop.
func NaNFirst(a, r uint64) uint64 {
	if a<<1 > 0xFFE0000000000000 { // exponent all ones, mantissa nonzero
		return a | 1<<51
	}
	return r
}

// Type returns the constant's type.
func (c *Const) Type() Type { return c.Ty }

// Int returns the constant interpreted as a signed integer.
func (c *Const) Int() int64 { return int64(c.Bits) }

// Float returns the constant interpreted as a float.
func (c *Const) Float() float64 { return math.Float64frombits(c.Bits) }

func (c *Const) String() string {
	if c.Ty == F64 {
		return fmt.Sprintf("%g", c.Float())
	}
	return fmt.Sprintf("%d", c.Int())
}

// Param is a function parameter. Parameters occupy the first frame slots of
// an activation; ID is assigned by Func.Renumber.
type Param struct {
	Name string
	Ty   Type
	ID   int // frame slot
	Fn   *Func
}

// Type returns the parameter's type.
func (p *Param) Type() Type { return p.Ty }

func (p *Param) String() string { return "%" + p.Name }

// Global is a module-level array of words. Used as an operand it evaluates
// to its base address (type Ptr); the interpreter assigns addresses at load
// time in declaration order.
type Global struct {
	Name string
	Size int      // number of 64-bit words
	Init []uint64 // optional initial contents (len <= Size)
}

// Type returns Ptr: a global used as an operand is its base address.
func (g *Global) Type() Type { return Ptr }

func (g *Global) String() string { return "@" + g.Name }
