package vm

import (
	"math"

	"herqules/internal/mir"
)

// System call numbers recognized by the VM. The low numbers model ordinary
// kernel services; the 1000-range numbers are evaluation intrinsics that
// model capabilities the RIPE suite obtains through compiler built-ins or
// shellcode (§5.2).
const (
	// SysWrite appends its argument to the process output (the
	// correctness-comparison channel, standing in for stdout).
	SysWrite = 1
	// SysNop is a read-only kernel service (models stat/time/getpid-style
	// calls with no externally visible side effects).
	SysNop = 39
	// SysSend is an effectful kernel service (models write/send/accept-
	// style calls whose side effects bounded asynchronous validation must
	// gate).
	SysSend = 44
	// SysExit terminates the process with the given code.
	SysExit = 60
	// SysRandom returns a deterministic pseudo-random value (the VM's
	// getrandom is seeded, so runs are reproducible).
	SysRandom = 318

	// SysFrameRetSlotAddr returns the address where the current frame's
	// return slot would live on a plain stack. With ASLR disabled this is
	// what an attacker computes from layout knowledge; under safe-stack
	// designs the actual slot lives elsewhere, so writes here miss.
	SysFrameRetSlotAddr = 1001
	// SysLeakRetSlotAddr returns the *actual* address of the current
	// frame's return slot, wherever the design placed it. This models
	// RIPE's use of a compiler built-in to retrieve return pointer
	// addresses — the disclosure-attack emulation that defeats
	// information hiding (§5.2).
	SysLeakRetSlotAddr = 1002
	// SysMarkExploit records that attacker-controlled code reached a
	// system call — the RIPE success criterion. Mirroring the paper's
	// treatment of RIPE's execve, it is exempt from synchronization
	// enforcement but still fails once the process has been killed.
	SysMarkExploit = 1003
)

// ReadOnlySyscall reports whether a system call has no externally visible
// side effects, so skipping its synchronization cannot let a compromised
// program affect the outside world — the elision the paper lists as a
// future improvement (§5.3.3).
func ReadOnlySyscall(no int) bool {
	switch no {
	case SysNop, SysRandom, SysFrameRetSlotAddr, SysLeakRetSlotAddr:
		return true
	}
	return false
}

// syscall executes one system call, including HerQules' bounded asynchronous
// validation: when a kernel is attached, the call is gated until the
// verifier confirms, and fails if the process has been killed.
func (p *Process) syscall(o *op, fr *frame) (uint64, error) {
	in := o.in
	p.res.Stats.Syscalls++
	if !p.cost.ExcludeSyscalls {
		p.res.Stats.Cycles += p.cost.Syscall
	}

	// Evaluation intrinsics that only read frame state skip the kernel.
	switch in.SyscallNo {
	case SysFrameRetSlotAddr:
		return fr.inFrameSlot, nil
	case SysLeakRetSlotAddr:
		return fr.retSlot, nil
	}

	if p.checkKilled() {
		return 0, errKilled
	}
	gated := p.cfg.Kernel != nil && in.SyscallNo != SysMarkExploit
	if gated && p.cfg.ElideReadOnlyGates && ReadOnlySyscall(in.SyscallNo) {
		gated = false
	}
	if gated {
		// Bounded asynchronous validation adds the kernel↔verifier
		// confirmation latency to every gated system call (§2.2).
		if !p.cost.ExcludeSyscalls {
			p.res.Stats.Cycles += p.cost.SyncStall
		}
		if err := p.cfg.Kernel.SyscallEnter(p.cfg.PID, in.SyscallNo); err != nil {
			p.res.Killed = true
			p.res.KillReason = err.Error()
			return 0, errKilled
		}
	}

	arg := func(i int) uint64 {
		if i < len(o.args) {
			return fr.get(o.args[i])
		}
		return 0
	}
	switch in.SyscallNo {
	case SysWrite:
		p.res.Output = append(p.res.Output, arg(0))
		return 8, nil
	case SysNop, SysSend:
		return 0, nil
	case SysExit:
		p.res.ExitCode = arg(0)
		p.halt = true
		return 0, errHalt
	case SysRandom:
		return p.nextRand(), nil
	case SysMarkExploit:
		// Re-check after the (skipped) gate: a kill ordered by the
		// verifier still prevents the payload's side effect.
		if p.checkKilled() {
			return 0, errKilled
		}
		p.res.ExploitMarker = true
		return 0, nil
	default:
		// Unknown syscalls behave as no-ops (ENOSYS-ish).
		return ^uint64(0), nil
	}
}

// intrinsic executes a runtime-provided bodyless function. The libm.*
// intrinsics operate on float64 bit patterns; under the CCFI
// register-pressure fallback (X87Fallback) results are double-rounded,
// modelling the numerical divergence the paper observed when CCFI's reserved
// XMM registers forced x87 code paths (§5.1).
func (p *Process) intrinsic(fn *mir.Func, args []uint64) (uint64, error) {
	arg := func(i int) uint64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	switch fn.Name {
	case "libm.sqrt":
		return p.fpResult(math.Sqrt(math.Float64frombits(arg(0)))), nil
	case "libm.sin":
		return p.fpResult(math.Sin(math.Float64frombits(arg(0)))), nil
	case "libm.exp":
		return p.fpResult(math.Exp(math.Float64frombits(arg(0)))), nil
	case "libm.mul":
		return p.fpResult(math.Float64frombits(arg(0)) * math.Float64frombits(arg(1))), nil
	case "libm.add":
		return p.fpResult(math.Float64frombits(arg(0)) + math.Float64frombits(arg(1))), nil
	case "libm.i2f":
		return math.Float64bits(float64(arg(0))), nil
	case "libm.f2i":
		f := math.Float64frombits(arg(0))
		if f != f || f > 1e18 || f < -1e18 {
			return 0, nil
		}
		return uint64(int64(f)), nil
	default:
		// Unknown intrinsics return 0 (weak stubs).
		return 0, nil
	}
}

// fpResult converts a float result to bits, applying the x87 double-rounding
// perturbation under the CCFI fallback.
func (p *Process) fpResult(f float64) uint64 {
	bits := math.Float64bits(f)
	if p.cfg.X87Fallback {
		// Model the observable effect of a different rounding path:
		// truncate the low mantissa bits the second rounding disturbs.
		bits &^= 0x7
	}
	return bits
}
