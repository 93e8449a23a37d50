package vm

import (
	"fmt"

	"herqules/internal/ipc"
	"herqules/internal/mir"
)

// runtimeOp executes one instrumentation-inserted runtime call. HQ
// operations become AppendWrite messages; the Clang-CFI, CCFI and CPI
// operations execute in-process, exactly where each design keeps its trust.
func (p *Process) runtimeOp(o *op, fr *frame) error {
	in := o.in
	arg := func(i int) uint64 {
		if i < len(o.args) {
			return fr.get(o.args[i])
		}
		return 0
	}
	emit := func(op ipc.Op, a1, a2, a3 uint64) error {
		if err := p.emitMsg(ipc.Message{Op: op, Arg1: a1, Arg2: a2, Arg3: a3}); err != nil {
			return err
		}
		if p.checkKilled() {
			return errKilled
		}
		return nil
	}
	p.res.Stats.Cycles += o.aux // the op's in-process cost

	switch in.RT {
	// --- HerQules messaging runtime (§4.1.3, §4.1.5, §2.2) ---
	case mir.RTPointerDefine:
		return emit(ipc.OpPointerDefine, arg(0), arg(1), 0)
	case mir.RTPointerCheck:
		return emit(ipc.OpPointerCheck, arg(0), arg(1), 0)
	case mir.RTPointerInvalidate:
		return emit(ipc.OpPointerInvalidate, arg(0), 0, 0)
	case mir.RTPointerCheckInvalidate:
		return emit(ipc.OpPointerCheckInvalidate, arg(0), arg(1), 0)
	case mir.RTBlockCopy:
		return emit(ipc.OpPointerBlockCopy, arg(0), arg(1), arg(2))
	case mir.RTBlockMove:
		// Size resolution uses the destination: the source allocation is
		// already gone after a realloc move.
		return emit(ipc.OpPointerBlockMove, arg(0), arg(1), p.resolveSize(arg(1), arg(2)))
	case mir.RTBlockInvalidate:
		return emit(ipc.OpPointerBlockInvalidate, arg(0), p.resolveSize(arg(0), arg(1)), 0)
	case mir.RTSyscallSync:
		return emit(ipc.OpSyscall, uint64(in.SyscallNo), 0, 0)
	case mir.RTRetDefine:
		return emit(ipc.OpPointerDefine, fr.retSlot, fr.retVal, 0)
	case mir.RTRetCheckInvalidate:
		v, err := p.Mem.ReadWord(fr.retSlot)
		if err != nil {
			return err
		}
		return emit(ipc.OpPointerCheckInvalidate, fr.retSlot, v, 0)

	// --- Memory-safety policy runtime (§4.2) ---
	case mir.RTAllocCreate:
		return emit(ipc.OpAllocCreate, arg(0), arg(1), 0)
	case mir.RTAllocCheck:
		return emit(ipc.OpAllocCheck, arg(0), 0, 0)
	case mir.RTAllocCheckBase:
		return emit(ipc.OpAllocCheckBase, arg(0), arg(1), 0)
	case mir.RTAllocExtend:
		return emit(ipc.OpAllocExtend, arg(0), arg(1), p.resolveSize(arg(1), arg(2)))
	case mir.RTAllocDestroy:
		return emit(ipc.OpAllocDestroy, arg(0), 0, 0)
	case mir.RTAllocDestroyAll:
		return emit(ipc.OpAllocDestroyAll, arg(0), arg(1), 0)

	case mir.RTCounterInc:
		return emit(ipc.OpCounterInc, arg(0), 0, 0)

	// --- Data-flow integrity runtime (§4.3) ---
	case mir.RTDFIDeclare:
		return emit(ipc.OpDFIDeclare, arg(0), arg(1), 0)
	case mir.RTDFISet:
		return emit(ipc.OpDFISet, arg(0), arg(1), 0)
	case mir.RTDFICheck:
		return emit(ipc.OpDFICheck, arg(0), arg(1), 0)

	// --- Clang/LLVM CFI: in-process type-class check (§6.3.1) ---
	case mir.RTClangCFICheck:
		target := arg(0)
		fn := p.FuncAt(target)
		if fn == nil || fn.Sig.Signature() != in.ClassSig {
			return p.violation(fmt.Sprintf("clang-cfi: target %#x not in class %s", target, in.ClassSig))
		}
		return nil

	// --- CCFI: MAC-protected code pointers (§6.3.3) ---
	case mir.RTMACStore:
		p.macTable[arg(0)] = p.mac(arg(0), arg(1), in.ClassSig)
		return nil
	case mir.RTMACCheck:
		if p.macTable[arg(0)] != p.mac(arg(0), arg(1), in.ClassSig) {
			return p.violation(fmt.Sprintf("ccfi: MAC mismatch at %#x", arg(0)))
		}
		return nil
	case mir.RTMACRetStore:
		v, err := p.Mem.ReadWord(fr.retSlot)
		if err != nil {
			return err
		}
		p.macTable[fr.retSlot] = p.mac(fr.retSlot, v, "ret")
		return nil
	case mir.RTMACRetCheck:
		v, err := p.Mem.ReadWord(fr.retSlot)
		if err != nil {
			return err
		}
		if p.macTable[fr.retSlot] != p.mac(fr.retSlot, v, "ret") {
			return p.violation(fmt.Sprintf("ccfi: return MAC mismatch at %#x", fr.retSlot))
		}
		return nil

	// --- CPI: safe pointer store (§6.3.3) ---
	case mir.RTSafeStoreSet:
		p.safeStore[arg(0)] = arg(1)
		return nil
	case mir.RTSafeStoreGet:
		fr.vals[o.dst] = p.safeStore[arg(0)]
		return nil

	// --- Store-to-load forwarding recursion guard (§4.1.4) ---
	case mir.RTRecursionGuardEnter:
		if p.guards[in.GuardID] {
			return fmt.Errorf("%w: store-to-load forwarding guard %d: "+
				"optimized function re-entered; recompile with the optimization disabled",
				ErrTrap, in.GuardID)
		}
		p.guards[in.GuardID] = true
		return nil
	case mir.RTRecursionGuardExit:
		p.guards[in.GuardID] = false
		return nil

	default:
		return fmt.Errorf("vm: unknown runtime op %v", in.RT)
	}
}

// violation handles an in-process check failure: record and continue under
// the paper's performance methodology, trap under the effectiveness one.
func (p *Process) violation(reason string) error {
	p.res.Violations++
	if p.cfg.ContinueOnViolation {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrTrap, reason)
}

// resolveSize substitutes the allocator's size for a zero size argument —
// the runtime-library equivalent of malloc_usable_size, used by free and
// realloc instrumentation that cannot know sizes statically.
func (p *Process) resolveSize(addr, size uint64) uint64 {
	if size != 0 {
		return size
	}
	if sz, ok := p.Heap.SizeOf(addr); ok {
		return sz
	}
	return 0
}

// mac computes the CCFI message authentication code over (address, value,
// type tag) with the process's register-held key. One AES round in the real
// system; an unforgeable-without-the-key mix here. Including the address
// prevents replay from other locations; including the type tag is what
// produces CCFI's false positives on casted pointers (§5.1).
func (p *Process) mac(addr, val uint64, tag string) uint64 {
	h := p.macKey
	h ^= addr * 0x9e3779b97f4a7c15
	h = (h << 31) | (h >> 33)
	h ^= val * 0xc2b2ae3d27d4eb4f
	for i := 0; i < len(tag); i++ {
		h = (h ^ uint64(tag[i])) * 0x100000001b3
	}
	h ^= h >> 29
	return h
}
