package vm

import (
	"fmt"

	"herqules/internal/mir"
)

// operand is an instruction operand resolved at load. A non-negative operand
// is a register of the frame: the parameters come first, then one register
// per instruction result. A negative operand ^i is entry i of the function's
// immediate pool: a constant, or the address of a global or a function,
// which the fixed layout (ASLR is off, §5.2) makes known at load.
type operand int32

// funcCode is one function prepared for execution: its frame layout and its
// instructions with every operand resolved.
type funcCode struct {
	fn        *mir.Func
	addr      uint64 // code address; 0 for a callee outside the module
	nparams   int
	nregs     int    // parameters plus instruction results
	frameSize uint64 // allocas plus the in-frame return slot
	safeSize  uint64 // safe-slot locals, when the process runs a safe stack
	imm       []uint64
	blocks    [][]op // per block, in order
}

// op is one instruction with its operands resolved.
type op struct {
	code mir.Opcode
	kind uint8   // OpBin: the BinKind; OpCmp: the CmpKind
	safe bool    // OpAlloca: the slot lives in the frame's safe area
	dst  operand // result register
	a, b operand // Args[0] and Args[1], when present
	// aux is the opcode's constant, computed at load: the alloca's offset,
	// the load or store size, the field offset, the index scale, the
	// encoded return address of a call, or a runtime op's in-process cost.
	aux    uint64
	args   []operand  // every operand, in order
	callee *funcCode  // OpCall
	edges  []edge     // OpBr, OpCondBr: the targets, in order
	in     *mir.Instr // the source instruction, for the rare opcodes
}

// edge is a branch target with the phi assignments of that edge.
type edge struct {
	blk   int
	moves []phiMove
}

// phiMove assigns one phi of the target block on entry.
type phiMove struct {
	dst, src operand
}

// get reads an operand in the context of fr.
func (fr *frame) get(o operand) uint64 {
	if o >= 0 {
		return fr.vals[o]
	}
	return fr.imm[^o]
}

// codeFor returns the funcCode of f, preparing a callee that is not in the
// module (an intrinsic, say) on first reference, at code address 0.
func (p *Process) codeFor(f *mir.Func) *funcCode {
	if fc, ok := p.codeOf[f]; ok {
		return fc
	}
	return p.addFunc(f, 0)
}

// addFunc places f at addr; compile fills in the rest at the end of load.
func (p *Process) addFunc(f *mir.Func, addr uint64) *funcCode {
	fc := &funcCode{fn: f, addr: addr, nparams: len(f.Sig.Params)}
	fc.nregs = fc.nparams
	if !f.Intrinsic {
		fc.nregs += f.NumValues
	}
	p.codeOf[f] = fc
	p.pending = append(p.pending, fc)
	return fc
}

// compile resolves every instruction of fc once, into per-block op tables,
// and lays out its frame: allocas packed from the frame base upward, the
// in-frame return slot as the top word (so a contiguous overflow of a local
// buffer reaches it, like x86). Allocas marked SafeSlot go to the frame's
// safe area instead when the process runs a safe stack. compile runs after
// the loader has placed every function and global.
func (p *Process) compile(fc *funcCode) {
	f := fc.fn
	blockIdx := make(map[*mir.Block]int, len(f.Blocks))
	ninstr, nargs := 0, 0
	for i, b := range f.Blocks {
		blockIdx[b] = i
		ninstr += len(b.Instrs)
		for _, in := range b.Instrs {
			nargs += len(in.Args)
		}
	}
	immOf := func(v uint64) operand {
		fc.imm = append(fc.imm, v)
		return ^operand(len(fc.imm) - 1)
	}
	resolve := func(v mir.Value) operand {
		switch v := v.(type) {
		case *mir.Param:
			return operand(v.Idx)
		case *mir.Instr:
			return operand(fc.nparams + v.ID)
		case *mir.Const:
			return immOf(v.Val)
		case *mir.FuncRef:
			return immOf(p.FuncAddr(v.Fn))
		case *mir.Global:
			return immOf(p.globalAddr[v])
		default:
			panic(fmt.Sprintf("vm: unknown value %T", v))
		}
	}
	edgeTo := func(from, to *mir.Block) edge {
		e := edge{blk: blockIdx[to]}
		for _, phi := range to.Instrs {
			if phi.Op != mir.OpPhi {
				break
			}
			mv := phiMove{dst: operand(fc.nparams + phi.ID)}
			found := false
			for i, pb := range phi.PhiBlocks {
				if pb == from {
					mv.src, found = resolve(phi.Args[i]), true
					break
				}
			}
			if !found {
				mv.src = immOf(0) // validated IR does not reach this
			}
			e.moves = append(e.moves, mv)
		}
		return e
	}

	useSafe := p.cfg.Placement != PlaceRegular
	var off, safeOff uint64
	argBuf := make([]operand, 0, nargs)
	ops := make([]op, ninstr)
	fc.blocks = make([][]op, len(f.Blocks))
	k := 0
	for bi, b := range f.Blocks {
		fc.blocks[bi] = ops[k : k+len(b.Instrs) : k+len(b.Instrs)]
		for _, in := range b.Instrs {
			o := &ops[k]
			k++
			start := len(argBuf)
			for _, a := range in.Args {
				argBuf = append(argBuf, resolve(a))
			}
			*o = op{code: in.Op, dst: operand(fc.nparams + in.ID), args: argBuf[start:len(argBuf):len(argBuf)], in: in}
			if len(o.args) > 0 {
				o.a = o.args[0]
			}
			if len(o.args) > 1 {
				o.b = o.args[1]
			}
			switch in.Op {
			case mir.OpAlloca:
				a := max(in.AllocTy.Align(), 8)
				if useSafe && in.SafeSlot {
					safeOff = (safeOff + a - 1) &^ (a - 1)
					o.aux, o.safe = safeOff, true
					safeOff += in.AllocTy.Size()
				} else {
					off = (off + a - 1) &^ (a - 1)
					o.aux = off
					off += in.AllocTy.Size()
				}
			case mir.OpLoad:
				o.aux = in.Type().Size()
			case mir.OpStore:
				o.aux = in.Args[0].Type().Size()
			case mir.OpFieldAddr:
				o.aux = in.Args[0].Type().Elem.FieldOffset(in.Field)
			case mir.OpIndexAddr:
				o.aux = in.Type().Elem.Size()
			case mir.OpBin:
				o.kind = uint8(in.Bin)
			case mir.OpCmp:
				o.kind = uint8(in.Cmp)
			case mir.OpCall:
				o.callee = p.codeFor(in.Callee)
				o.aux = retAddr(fc, in)
			case mir.OpICall:
				o.aux = retAddr(fc, in)
			case mir.OpBr, mir.OpCondBr:
				for _, t := range in.Targets {
					o.edges = append(o.edges, edgeTo(b, t))
				}
			case mir.OpRuntime:
				o.aux = p.cost.RuntimeCost(in.RT)
			}
		}
	}
	fc.frameSize = (off+7)&^7 + 8 // + in-frame return slot
	fc.safeSize = (safeOff + 7) &^ 7
}

// retAddr encodes the return address for a call at instruction in: the
// caller's code address plus the instruction's offset.
func retAddr(fc *funcCode, in *mir.Instr) uint64 {
	return fc.addr + 16 + uint64(in.ID)%(funcStride-16)
}
