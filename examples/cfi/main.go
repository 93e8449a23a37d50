// CFI example: a heap overflow corrupts a function pointer, and a
// use-after-free dangles one. Run the same program uninstrumented (the
// exploit wins) and under HQ-CFI (the verifier kills the process before the
// payload's system call executes, and the dangling pointer is flagged).
//
// Run with: go run ./examples/cfi
package main

import (
	"fmt"
	"log"

	hq "herqules"
)

// buildVictim constructs a program with two bugs:
//
//  1. An overflow of a heap buffer overwrites the function pointer stored in
//     the adjacent allocation with the attacker function's (known, ASLR-off)
//     address; the program then dispatches through it.
//  2. After the dispatch, the program frees an object holding a callback and
//     calls through the stale pointer — a use-after-free that "works".
func buildVictim() *hq.Module {
	mod := hq.NewModule("victim")
	b := hq.NewBuilder(mod)
	sig := hq.FuncTypeOf(hq.I64Type, hq.I64Type)

	// Function #0: the attacker's payload ("shellcode").
	attacker := b.Func("attacker", sig, "x")
	b.Syscall(60 /* exit */, hq.ConstInt(99))
	b.Ret(hq.ConstInt(0))
	_ = attacker

	legit := b.Func("legit", sig, "x")
	b.Ret(b.Add(legit.Params[0], hq.ConstInt(1)))

	b.Func("main", hq.FuncTypeOf(hq.I64Type))
	// Adjacent heap allocations: a buffer and a callback slot.
	buf := b.Malloc(hq.ConstInt(32))
	slotRaw := b.Malloc(hq.ConstInt(16))
	slot := b.Cast(slotRaw, hq.PtrType(hq.PtrType(sig)))
	b.Store(b.FuncAddr(legit), slot)

	// Bug 1: off-by-four — the loop writes 5 words into a 4-word buffer;
	// word 4 lands on the callback slot. The payload value is a plain
	// integer (the attacker function's address), invisible to any
	// pointer-type analysis.
	words := b.Cast(buf, hq.PtrType(hq.I64Type))
	for i := 0; i < 5; i++ {
		b.Store(hq.ConstInt(hq.StaticFuncAddr(0)), b.IndexAddr(words, hq.ConstInt(uint64(i))))
	}

	// Dispatch through the (now corrupted) callback.
	fp := b.Load(slot)
	r := b.ICall(fp, sig, hq.ConstInt(41))

	// Bug 2: use-after-free on a control-flow pointer.
	obj := b.Malloc(hq.ConstInt(16))
	cb := b.Cast(obj, hq.PtrType(hq.PtrType(sig)))
	b.Store(b.FuncAddr(legit), cb)
	b.Free(obj)
	stale := b.Load(cb) // reads freed memory, which still holds the pointer
	r2 := b.ICall(stale, sig, r)

	b.Syscall(1 /* write */, r2)
	b.Syscall(60 /* exit */, hq.ConstInt(0))
	b.Ret(hq.ConstInt(0))
	mod.Finalize()
	return mod
}

func main() {
	mod := buildVictim()
	if err := hq.Validate(mod); err != nil {
		log.Fatal(err)
	}

	// Unprotected: the hijacked dispatch runs the attacker's payload.
	base, err := hq.Instrument(mod, hq.Baseline, hq.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	out, err := hq.Run(base, []hq.SystemOption{hq.WithKillOnViolation(true)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline:   exit=%d hijacked=%t (attacker exits with 99)\n",
		out.ExitCode, out.ExitCode == 99)

	// Under HQ-CFI the Pointer-Check message betrays the corruption and
	// the kernel kills the process on the verifier's order.
	prot, err := hq.Instrument(mod, hq.HQSfeStk, hq.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	out2, err := hq.Run(prot, []hq.SystemOption{hq.WithKillOnViolation(true)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hq-cfi:     killed=%t reason=%q\n", out2.Killed, out2.KillReason)

	// In monitoring (continue) mode, both the corruption and the
	// use-after-free are reported while the program runs on.
	out3, err := hq.Run(prot, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monitoring: %d violations recorded:\n", len(out3.PolicyViolations))
	for _, v := range out3.PolicyViolations {
		fmt.Printf("  - %s\n", v.Reason)
	}
}
