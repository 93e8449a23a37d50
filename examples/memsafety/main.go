// Memory-safety example: the §4.2 policy. The verifier tracks every
// allocation as an interval; accesses outside a live allocation
// (out-of-bounds or use-after-free) and invalid frees (double free) are
// violations — corruption is caught at the access, before any pointer is
// even corrupted.
//
// Run with: go run ./examples/memsafety
package main

import (
	"fmt"
	"log"

	hq "herqules"
)

func build(bug string) *hq.Module {
	mod := hq.NewModule("memsafety-" + bug)
	b := hq.NewBuilder(mod)
	b.Func("main", hq.FuncTypeOf(hq.I64Type))

	buf := b.Malloc(hq.ConstInt(32))
	words := b.Cast(buf, hq.PtrType(hq.I64Type))
	// Four in-bounds writes.
	for i := 0; i < 4; i++ {
		b.Store(hq.ConstInt(uint64(i)), b.IndexAddr(words, hq.ConstInt(uint64(i))))
	}
	switch bug {
	case "oob":
		// Word 4 is one past the end of the 32-byte allocation.
		b.Store(hq.ConstInt(0xbad), b.IndexAddr(words, hq.ConstInt(4)))
	case "uaf":
		b.Free(buf)
		b.Store(hq.ConstInt(0xbad), words) // freed memory is still mapped
		// Re-allocate so the program's own free below stays valid.
		buf2 := b.Malloc(hq.ConstInt(32))
		b.Free(buf2)
	case "none":
	}
	if bug != "uaf" {
		b.Free(buf)
	}
	b.Syscall(60, hq.ConstInt(0))
	b.Ret(hq.ConstInt(0))
	mod.Finalize()
	return mod
}

func runOne(bug string) {
	mod := build(bug)
	if err := hq.Validate(mod); err != nil {
		log.Fatal(err)
	}
	opts := hq.DefaultOptions()
	opts.MemSafety = true // enable the §4.2 allocation instrumentation
	ins, err := hq.Instrument(mod, hq.HQSfeStk, opts)
	if err != nil {
		log.Fatal(err)
	}
	out, err := hq.Run(ins, []hq.SystemOption{hq.WithKillOnViolation(true)})
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case out.Killed:
		fmt.Printf("%-5s -> killed: %s\n", bug, out.KillReason)
	case out.Err != nil:
		fmt.Printf("%-5s -> crashed: %v\n", bug, out.Err)
	default:
		fmt.Printf("%-5s -> clean exit (%d messages checked)\n", bug, out.MessagesProcessed)
	}
}

func main() {
	for _, bug := range []string{"none", "oob", "uaf"} {
		runOne(bug)
	}
}
