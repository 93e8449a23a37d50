package vm

import (
	"errors"
	"fmt"

	"herqules/internal/mem"
	"herqules/internal/mir"
)

// Internal unwinding sentinels.
var (
	errHalt   = errors.New("vm: halt")   // exit syscall
	errKilled = errors.New("vm: killed") // kernel killed the process
)

// frame is one activation record. Its storage lives in guest memory
// ([base, base+frameSize) on the regular stack); vals are its registers on
// the process's value stack, and imm its function's immediate pool.
type frame struct {
	code        *funcCode
	vals        []uint64
	imm         []uint64
	base        uint64
	inFrameSlot uint64 // where the return slot would live on a plain stack
	retSlot     uint64 // where the return slot actually lives
	retVal      uint64 // the encoded return address pushed at call time
	safeBase    uint64 // base of this frame's safe area (0 on a plain stack)
}

// Run executes the named entry function with integer arguments and returns
// the process outcome. A Process may only be Run once.
func (p *Process) Run(entry string, args ...uint64) *Result {
	fn := p.Mod.Func(entry)
	if fn == nil {
		p.res.Err = fmt.Errorf("vm: no entry function %q", entry)
		return p.res
	}
	fc := p.codeOf[fn]
	regs := p.pushRegs(fc.nregs)
	copy(regs[:fc.nparams], args)
	ret, err := p.call(fc, regs, exitToken)
	switch {
	case err == nil:
		p.res.ExitCode = ret
	case errors.Is(err, errHalt):
		// exit syscall already recorded the code.
	case errors.Is(err, errKilled):
		// Killed fields already recorded.
	default:
		p.res.Err = err
	}
	if p.res.Stats.Messages > 0 && p.checkKilled() {
		// A violation delivered on the final messages (e.g. epilogue
		// checks) still kills the program before it can exit cleanly.
		p.res.Err = nil
	}
	return p.res
}

// pushRegs reserves n zeroed registers on top of the value stack. The
// caller pops them by restoring regTop.
func (p *Process) pushRegs(n int) []uint64 {
	top := p.regTop + n
	if top > len(p.regs) {
		// Live frames keep their slices of the old array, so the new
		// one need not copy it.
		p.regs = make([]uint64, max(2*len(p.regs), top, 1024))
	}
	r := p.regs[p.regTop:top:top]
	clear(r)
	p.regTop = top
	return r
}

// invoke calls callee with the caller's operands args as its arguments:
// they fill the callee's parameter registers, truncated or zero-padded to
// its arity (a hijacked or signature-confused transfer passes whatever
// happens to be in registers).
func (p *Process) invoke(fr *frame, callee *funcCode, args []operand, retVal uint64) (uint64, error) {
	top := p.regTop
	regs := p.pushRegs(callee.nregs)
	for i, a := range args[:min(len(args), callee.nparams)] {
		regs[i] = fr.get(a)
	}
	ret, err := p.call(callee, regs, retVal)
	p.regTop = top
	return ret, err
}

// call pushes a frame for fc, whose registers regs already hold the
// arguments, and executes it. retVal is the encoded return address stored in
// the frame's return slot.
func (p *Process) call(fc *funcCode, regs []uint64, retVal uint64) (uint64, error) {
	if fc.fn.Intrinsic {
		return p.intrinsic(fc.fn, regs[:fc.nparams])
	}
	if len(fc.blocks) == 0 {
		return 0, fmt.Errorf("vm: call of bodyless function @%s", fc.fn.Name)
	}
	depth := p.depth + 1
	if depth > p.res.Stats.MaxDepth {
		p.res.Stats.MaxDepth = depth
	}
	if depth > 4096 {
		return 0, &mem.Fault{Addr: p.sp, Kind: mem.FaultUnmapped, Need: mem.Write}
	}
	if p.sp < stackLow+fc.frameSize {
		return 0, &mem.Fault{Addr: p.sp, Kind: mem.FaultUnmapped, Need: mem.Write}
	}
	p.depth = depth
	p.sp -= fc.frameSize
	fr := frame{
		code:        fc,
		vals:        regs,
		imm:         fc.imm,
		base:        p.sp,
		inFrameSlot: p.sp + fc.frameSize - 8,
		retSlot:     p.sp + fc.frameSize - 8,
		retVal:      retVal,
	}
	// Place the return slot per the active design (§6.3.4). The frame's
	// safe area holds the return slot followed by any safe-slot locals.
	var safeFrame uint64
	if p.safeBase != 0 {
		fr.safeBase = p.safeTop
		fr.retSlot = fr.safeBase
		safeFrame = 8 + fc.safeSize
		p.safeTop += safeFrame
	}
	ret, err := p.enter(&fr)
	p.depth--
	p.sp += fc.frameSize
	p.safeTop -= safeFrame
	return ret, err
}

// enter stores fr's return address in its return slot (clearing the
// in-frame slot a safe stack leaves unused) and runs the body.
func (p *Process) enter(fr *frame) (uint64, error) {
	if fr.safeBase != 0 {
		if err := p.Mem.WriteWord(fr.inFrameSlot, 0); err != nil {
			return 0, err
		}
	}
	if err := p.Mem.WriteWord(fr.retSlot, fr.retVal); err != nil {
		return 0, err
	}
	p.res.Stats.Cycles += p.cost.CallOverhead
	return p.exec(fr)
}

// exec runs the body of fr's function.
func (p *Process) exec(fr *frame) (uint64, error) {
	st := &p.res.Stats
	blk := 0
	ops := fr.code.blocks[0]
blocks:
	for {
		for i := range ops {
			o := &ops[i]
			st.Instructions++
			if st.Instructions > p.cfg.MaxInstructions {
				return 0, ErrLimit
			}
			st.Cycles += p.cost.Instr

			switch o.code {
			case mir.OpPhi:
				// Assigned during the jump into this block.

			case mir.OpAlloca:
				if o.safe {
					fr.vals[o.dst] = fr.safeBase + 8 + o.aux
				} else {
					fr.vals[o.dst] = fr.base + o.aux
				}

			case mir.OpLoad:
				v, err := p.loadSized(fr.get(o.a), o.aux)
				if err != nil {
					return 0, err
				}
				fr.vals[o.dst] = v
				st.Loads++
				st.Cycles += p.cost.Load

			case mir.OpStore:
				if err := p.storeSized(fr.get(o.b), fr.get(o.a), o.aux); err != nil {
					return 0, err
				}
				st.Stores++
				st.Cycles += p.cost.Store

			case mir.OpFieldAddr:
				fr.vals[o.dst] = fr.get(o.a) + o.aux

			case mir.OpIndexAddr:
				fr.vals[o.dst] = fr.get(o.a) + fr.get(o.b)*o.aux

			case mir.OpBin:
				v, err := binOp(mir.BinKind(o.kind), fr.get(o.a), fr.get(o.b))
				if err != nil {
					return 0, err
				}
				fr.vals[o.dst] = v

			case mir.OpCmp:
				fr.vals[o.dst] = cmpOp(mir.CmpKind(o.kind), fr.get(o.a), fr.get(o.b))

			case mir.OpCast:
				fr.vals[o.dst] = fr.get(o.a)

			case mir.OpCall:
				ret, err := p.invoke(fr, o.callee, o.args, o.aux)
				if err != nil {
					return 0, err
				}
				fr.vals[o.dst] = ret
				st.Calls++

			case mir.OpICall:
				target := fr.get(o.a)
				callee := p.codeAt(target)
				if callee == nil {
					return 0, &mem.Fault{Addr: target, Kind: mem.FaultPerm, Need: mem.Exec}
				}
				ret, err := p.invoke(fr, callee, o.args[1:], o.aux)
				if err != nil {
					return 0, err
				}
				fr.vals[o.dst] = ret
				st.ICalls++

			case mir.OpRet:
				return p.doRet(fr, o)

			case mir.OpBr:
				blk = p.jump(fr, &o.edges[0])
				ops = fr.code.blocks[blk]
				continue blocks

			case mir.OpCondBr:
				e := &o.edges[1]
				if fr.get(o.a) != 0 {
					e = &o.edges[0]
				}
				blk = p.jump(fr, e)
				ops = fr.code.blocks[blk]
				continue blocks

			case mir.OpMalloc:
				addr, err := p.Heap.Malloc(fr.get(o.a))
				if err != nil {
					return 0, fmt.Errorf("vm: %w", err)
				}
				fr.vals[o.dst] = addr

			case mir.OpFree:
				if err := p.Heap.Free(fr.get(o.a)); err != nil {
					return 0, fmt.Errorf("vm: %w", err)
				}

			case mir.OpRealloc:
				nw, err := p.Heap.Realloc(fr.get(o.a), fr.get(o.b))
				if err != nil {
					return 0, fmt.Errorf("vm: %w", err)
				}
				fr.vals[o.dst] = nw

			case mir.OpMemcpy, mir.OpMemmove:
				n := fr.get(o.args[2])
				if err := p.Mem.Memmove(fr.get(o.a), fr.get(o.b), n); err != nil {
					return 0, err
				}
				st.BlockBytes += n
				st.Cycles += n * p.cost.BlockOpByte

			case mir.OpMemset:
				n := fr.get(o.args[2])
				if err := p.Mem.Memset(fr.get(o.a), byte(fr.get(o.b)), n); err != nil {
					return 0, err
				}
				st.BlockBytes += n
				st.Cycles += n * p.cost.BlockOpByte

			case mir.OpSyscall:
				v, err := p.syscall(o, fr)
				if err != nil {
					return 0, err
				}
				fr.vals[o.dst] = v

			case mir.OpRuntime:
				if err := p.runtimeOp(o, fr); err != nil {
					return 0, err
				}

			default:
				return 0, fmt.Errorf("vm: unimplemented opcode %s", o.code)
			}
		}
		return 0, fmt.Errorf("vm: block %s fell through", fr.code.fn.Blocks[blk])
	}
}

// doRet dispatches a return through the in-memory return slot: the stored
// word is loaded and *used* as the transfer target, so corruption of the
// slot genuinely redirects control (the x86 ret semantics attacks rely on).
func (p *Process) doRet(fr *frame, o *op) (uint64, error) {
	var ret uint64
	if len(o.args) == 1 {
		ret = fr.get(o.a)
	}
	stored, err := p.Mem.ReadWord(fr.retSlot)
	if err != nil {
		return 0, err
	}
	if stored == fr.retVal {
		return ret, nil // normal return to the saved site
	}
	// The slot was corrupted: transfer to whatever it names.
	p.res.Hijacked = true
	if target := p.codeAt(stored); target != nil {
		// Execute the attacker-chosen function ("shellcode") with zeroed
		// arguments; the program cannot meaningfully continue afterwards.
		_, err := p.invoke(fr, target, nil, exitToken)
		if err != nil && (errors.Is(err, errHalt) || errors.Is(err, errKilled)) {
			return 0, err
		}
		return 0, fmt.Errorf("%w: hijacked to @%s", ErrStackCorrupt, target.fn.Name)
	}
	return 0, fmt.Errorf("%w: slot=%#x", ErrStackCorrupt, stored)
}

// jump takes edge e, assigning the target block's phis, and returns the
// target block's index. All phi inputs are read before any phi output is
// written (parallel-assignment semantics).
func (p *Process) jump(fr *frame, e *edge) int {
	var tmp [8]uint64
	vals := tmp[:0]
	for _, mv := range e.moves {
		vals = append(vals, fr.get(mv.src))
	}
	for i, mv := range e.moves {
		fr.vals[mv.dst] = vals[i]
	}
	return e.blk
}

func (p *Process) loadSized(addr uint64, size uint64) (uint64, error) {
	switch size {
	case 1:
		b, err := p.Mem.LoadByte(addr)
		return uint64(b), err
	case 2, 4:
		var buf [8]byte
		if err := p.Mem.Read(addr, buf[:size]); err != nil {
			return 0, err
		}
		var v uint64
		for i := uint64(0); i < size; i++ {
			v |= uint64(buf[i]) << (8 * i)
		}
		return v, nil
	default:
		return p.Mem.ReadWord(addr)
	}
}

func (p *Process) storeSized(addr, val, size uint64) error {
	switch size {
	case 1:
		return p.Mem.StoreByte(addr, byte(val))
	case 2, 4:
		var buf [8]byte
		for i := uint64(0); i < size; i++ {
			buf[i] = byte(val >> (8 * i))
		}
		return p.Mem.Write(addr, buf[:size])
	default:
		return p.Mem.WriteWord(addr, val)
	}
}

func binOp(k mir.BinKind, x, y uint64) (uint64, error) {
	switch k {
	case mir.BinAdd:
		return x + y, nil
	case mir.BinSub:
		return x - y, nil
	case mir.BinMul:
		return x * y, nil
	case mir.BinDiv:
		if y == 0 {
			return 0, fmt.Errorf("vm: integer division by zero")
		}
		return x / y, nil
	case mir.BinRem:
		if y == 0 {
			return 0, fmt.Errorf("vm: integer remainder by zero")
		}
		return x % y, nil
	case mir.BinAnd:
		return x & y, nil
	case mir.BinOr:
		return x | y, nil
	case mir.BinXor:
		return x ^ y, nil
	case mir.BinShl:
		return x << (y & 63), nil
	case mir.BinShr:
		return x >> (y & 63), nil
	default:
		return 0, fmt.Errorf("vm: unknown binop %d", k)
	}
}

func cmpOp(k mir.CmpKind, x, y uint64) uint64 {
	var b bool
	switch k {
	case mir.CmpEq:
		b = x == y
	case mir.CmpNe:
		b = x != y
	case mir.CmpLt:
		b = x < y
	case mir.CmpLe:
		b = x <= y
	case mir.CmpGt:
		b = x > y
	case mir.CmpGe:
		b = x >= y
	}
	if b {
		return 1
	}
	return 0
}
