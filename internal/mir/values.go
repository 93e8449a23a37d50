package mir

import "fmt"

// Value is anything usable as an instruction operand: constants, function
// references, globals, parameters, and instruction results.
type Value interface {
	Type() *Type
	// Ref returns the short printable reference for operand positions.
	Ref() string
}

// Const is an integer or null-pointer constant.
type Const struct {
	Typ *Type
	Val uint64
}

// ConstInt returns an i64 constant.
func ConstInt(v uint64) *Const { return &Const{Typ: I64, Val: v} }

// ConstTyped returns a constant of an explicit integer or pointer type.
func ConstTyped(t *Type, v uint64) *Const { return &Const{Typ: t, Val: v} }

// Null returns the null constant of pointer type t.
func Null(t *Type) *Const { return &Const{Typ: t, Val: 0} }

// Type implements Value.
func (c *Const) Type() *Type { return c.Typ }

// Ref implements Value.
func (c *Const) Ref() string {
	if c.Typ.IsPtr() && c.Val == 0 {
		return "null"
	}
	return fmt.Sprintf("%d", c.Val)
}

// FuncRef is a reference to a function: taking a function's address yields a
// value of function-pointer type. Any function referenced by a FuncRef that
// flows into data is address-taken.
type FuncRef struct {
	Fn *Func
}

// Type implements Value.
func (f *FuncRef) Type() *Type { return Ptr(f.Fn.Sig) }

// Ref implements Value.
func (f *FuncRef) Ref() string { return "@" + f.Fn.Name }

// Global is a module-level variable. Each process that loads the module
// assigns its address and keeps it (vm.Process.GlobalAddr), so one module can
// be loaded by many processes at once. Init provides initial bytes (zero-filled when nil). ReadOnly globals are
// mapped without write permission, modelling read-only relocations and
// constant data (§4.1.3): control-flow pointers stored there need no
// protection.
type Global struct {
	Name     string
	Elem     *Type // the variable's type; the global's value type is Elem*
	ReadOnly bool
	// InitWords are initial 8-byte words. A word may instead be a function
	// reference, recorded in InitFuncs; these are the "global control-flow
	// pointers" that HQ's startup initializer registers with the verifier.
	InitWords []uint64
	// InitFuncs maps word index -> function whose address initializes it.
	InitFuncs map[int]*Func
	// Segment selects the loader segment: "data" (initialized) or "bss".
	// RIPE distinguishes overflow origins by segment (§5.2).
	Segment string
}

// Type implements Value: a global evaluates to its address.
func (g *Global) Type() *Type { return Ptr(g.Elem) }

// Ref implements Value.
func (g *Global) Ref() string { return "@" + g.Name }

// Param is a function parameter.
type Param struct {
	Nm  string
	Typ *Type
	Idx int
}

// Type implements Value.
func (p *Param) Type() *Type { return p.Typ }

// Ref implements Value.
func (p *Param) Ref() string { return "%" + p.Nm }
