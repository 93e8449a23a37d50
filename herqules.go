// Package herqules is a from-scratch Go reproduction of HerQules (HQ), the
// framework from "HerQules: Securing Programs via Hardware-Enforced Message
// Queues" (ASPLOS 2021): integrity-based execution policies enforced by
// streaming append-only AppendWrite messages from a monitored program to a
// verifier in a separate protection domain, with bounded asynchronous
// validation at system calls.
//
// The package is a facade over the internal substrates:
//
//   - an IR and compiler pipeline implementing the paper's instrumentation
//     (pointer-integrity CFI with store-to-load forwarding, message elision
//     and devirtualization) plus the baseline designs it compares against
//     (Clang/LLVM CFI, CCFI, CPI);
//   - a process virtual machine in which corrupted control transfers are
//     really taken, so attacks and defences are executed rather than
//     assumed;
//   - AppendWrite implementations: an FPGA model, a µarch (ISA-extension)
//     model with MMU-enforced appendable memory regions, and the software
//     primitives of Table 2;
//   - the kernel module and verifier of Figure 1;
//   - the paper's benchmark and exploit suites, and a harness regenerating
//     every table and figure (see cmd/hqbench).
//
// # Quick start
//
// Build a program with NewBuilder, instrument it for a design, and run it
// monitored:
//
//	mod := herqules.NewModule("demo")
//	b := herqules.NewBuilder(mod)
//	... // construct functions (see examples/)
//	ins, err := herqules.Instrument(mod, herqules.HQSfeStk, herqules.DefaultOptions())
//	out, err := herqules.Run(ins, nil)
//
// Every program runs under a System: one kernel module and one verifier
// serving any number of monitored programs (NewSystem / Launch / Shutdown).
// Run is the one-program shorthand for that sequence. A System can expose a
// live observability plane — Prometheus /metrics with per-PID attribution
// and sampled send → validate latency, /healthz, /procs, /trace,
// /debug/pprof — with WithHTTPAddr; see DESIGN.md's "Observability" section.
//
// # Policy selection
//
// Policies are registered by name (Policies() lists the registry) and
// selected as data rather than constructed in code:
//
//	sys := herqules.NewSystem(herqules.WithPolicies("cfi", "memsafety", "hmac"))
//
// The registry holds cfi, memsafety, counter, dfi, temporal (temporal memory
// safety) and hmac (MAC-authenticated messages). PolicySet resolves names
// with an error return; a custom factory (hand-built sets, unregistered
// policy implementations) plugs in through WithPolicyFactory.
package herqules

import (
	"context"

	"herqules/internal/compiler"
	"herqules/internal/ipc"
	"herqules/internal/policy"
	"herqules/internal/sim"
	"herqules/internal/supervisor"
	"herqules/internal/verifier"
	"herqules/internal/vm"
)

// Design identifies a control-flow-integrity design (Table 3).
type Design = compiler.Design

// The designs under evaluation.
const (
	// Baseline is the uninstrumented program.
	Baseline = compiler.Baseline
	// HQSfeStk is HQ-CFI-SfeStk: pointer-integrity messages for forward
	// edges, a guarded safe stack for return pointers.
	HQSfeStk = compiler.HQSfeStk
	// HQRetPtr is HQ-CFI-RetPtr: fully message-protected, including
	// return pointers.
	HQRetPtr = compiler.HQRetPtr
	// ClangCFI is modern Clang/LLVM CFI.
	ClangCFI = compiler.ClangCFI
	// CCFI is Cryptographically-Enforced CFI.
	CCFI = compiler.CCFI
	// CPI is Code-Pointer Integrity.
	CPI = compiler.CPI
)

// Options tunes the instrumentation pipeline (§4.1.4).
type Options = compiler.Options

// DefaultOptions is the paper's default configuration: all optimizations
// enabled, strict subtype checking.
func DefaultOptions() Options { return compiler.DefaultOptions() }

// Instrumented is a compiled, instrumented program ready to run.
type Instrumented = compiler.Instrumented

// Instrument applies a design's pass pipeline to a clone of mod.
func Instrument(mod *Module, d Design, opts Options) (*Instrumented, error) {
	return compiler.Instrument(mod, d, opts)
}

// Outcome is the result of a monitored execution.
type Outcome = supervisor.Outcome

// Run executes one instrumented program on a System of its own, built with
// sys, and shuts the System down once the program exits. Delivery is
// deterministic and inline unless opts switch it to a concurrent transport
// with WithChannel. Programs that share an enforcement domain, or that keep
// the verifier warm between runs, Launch into one System instead.
func Run(ins *Instrumented, sys []SystemOption, opts ...RunOption) (*Outcome, error) {
	s := NewSystem(sys...)
	defer s.Shutdown(context.Background())
	p, err := s.Launch(ins, append([]RunOption{WithInlineDelivery()}, opts...)...)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// Policy is a verifier-side execution policy.
type Policy = policy.Policy

// Violation is a failed policy check. Violation.Policy carries the registry
// name of the policy that raised it.
type Violation = policy.Violation

// CounterPolicy is the concrete event-counter policy; assert a Policy
// obtained from the registry (or Verifier.Policy lookups) to this type to
// read counts: p.(*herqules.CounterPolicy).Count(class).
type CounterPolicy = policy.Counter

// Policies lists the registered policy names, sorted — the valid inputs to
// WithPolicies and PolicySet.
func Policies() []string { return policy.Names() }

// PolicySet resolves registry names into a PolicyFactory, validating every
// name up front. This is the error-returning counterpart of WithPolicies for
// callers that take policy names from configuration or flags.
func PolicySet(names ...string) (PolicyFactory, error) {
	f, err := policy.SetFactory(names...)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// PolicyFactory builds a policy set per monitored process. Construct one
// from registry names with PolicySet, or write your own for unregistered
// policy implementations.
type PolicyFactory = verifier.PolicyFactory

// Channel is a bidirectionally wired AppendWrite/IPC transport.
type Channel = ipc.Channel

// Message is the fixed-size AppendWrite message (§3.1).
type Message = ipc.Message

// ChannelKind selects an IPC primitive.
type ChannelKind = ipc.Kind

// The IPC primitives of Table 2.
const (
	SharedRing   = ipc.KindSharedRing
	MessageQueue = ipc.KindMessageQueue
	Pipe         = ipc.KindPipe
	Socket       = ipc.KindSocket
	LWC          = ipc.KindLWC
	FPGA         = ipc.KindFPGA
	UArchModel   = ipc.KindUArchModel
	UArchSim     = ipc.KindUArchSim
)

// NewChannel constructs an IPC channel of the given kind with a default
// capacity, propagating any constructor failure (an unknown kind reports
// its numeric value; backend validation errors — the FPGA's buffer check,
// the µarch simulator's appendable-region mapping — surface instead of
// being swallowed). The AppendWrite-µarch kind allocates its appendable
// memory region in a private address space.
func NewChannel(kind ChannelKind) (*Channel, error) {
	return supervisor.NewChannel(kind)
}

// PIDRegister is implemented by channel senders whose transport carries a
// kernel-managed process-identity register (§3.1.1); the framework programs
// it when binding a channel to a freshly registered process.
type PIDRegister = ipc.PIDRegister

// CostModel is the deterministic cycle model used by performance
// experiments.
type CostModel = sim.CostModel

// DefaultCostModel returns the baseline cycle model; attach a message cost
// with WithMessaging.
func DefaultCostModel() *CostModel { return sim.Default() }

// MessageCost converts a send latency in nanoseconds to model cycles.
func MessageCost(nanos float64) uint64 { return sim.MessageCost(nanos) }

// Result is the raw VM execution result embedded in Outcome.
type Result = vm.Result

// vmStaticFuncAddr backs StaticFuncAddr in ir.go.
var vmStaticFuncAddr = vm.StaticFuncAddr

// System call numbers available to generated programs.
const (
	// SysWrite appends a value to the program output.
	SysWrite = vm.SysWrite
	// SysNop is a read-only (stat-like) kernel service.
	SysNop = vm.SysNop
	// SysSend is an effectful (write/send-like) kernel service whose side
	// effects bounded asynchronous validation gates.
	SysSend = vm.SysSend
	// SysExit terminates the program.
	SysExit = vm.SysExit
)
