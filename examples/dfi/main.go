// DFI example: the §4.3 data-flow integrity policy catching a
// *non-control-data* attack — the class of exploit no CFI design can see.
//
// The program keeps an is_admin flag next to a request buffer. An overflow
// flips the flag; no function pointer or return address is ever touched, so
// HQ-CFI alone stays silent and the privileged branch executes. With the
// DFI instrumentation, every store announces its identity and the flag's
// read is checked against its statically computed set of legitimate
// writers; the rogue write is caught before the branch.
//
// Run with: go run ./examples/dfi
package main

import (
	"fmt"
	"log"

	hq "herqules"
)

func buildVictim() *hq.Module {
	mod := hq.NewModule("privesc")
	b := hq.NewBuilder(mod)

	// Layout: the request buffer sits directly below the flag.
	buf := b.Global("request_buf", hq.ArrayTypeOf(hq.I64Type, 4), "bss")
	flag := b.Global("is_admin", hq.I64Type, "bss")

	b.Func("main", hq.FuncTypeOf(hq.I64Type))
	b.Store(hq.ConstInt(0), flag) // deny by default: the only legal writer

	// "Parse the request": copies 5 words into a 4-word buffer.
	for i := 0; i < 5; i++ { // the off-by-one
		b.Store(hq.ConstInt(1), b.IndexAddr(buf, hq.ConstInt(uint64(i))))
	}

	v := b.Load(flag)
	granted := b.Block("granted")
	denied := b.Block("denied")
	b.CondBr(v, granted, denied)
	b.SetBlock(granted)
	b.Syscall(hq.SysSend) // "grant shell" — the privileged action
	b.Syscall(hq.SysExit, hq.ConstInt(99))
	b.Ret(hq.ConstInt(0))
	b.SetBlock(denied)
	b.Syscall(hq.SysExit, hq.ConstInt(0))
	b.Ret(hq.ConstInt(0))
	mod.Finalize()
	return mod
}

func main() {
	mod := buildVictim()
	if err := hq.Validate(mod); err != nil {
		log.Fatal(err)
	}

	run := func(label string, opts hq.Options) {
		ins, err := hq.Instrument(mod, hq.HQSfeStk, opts)
		if err != nil {
			log.Fatal(err)
		}
		out, err := hq.Run(ins, []hq.SystemOption{hq.WithKillOnViolation(true)})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "privilege GRANTED (attack succeeded)"
		if out.Killed {
			verdict = fmt.Sprintf("killed before the branch: %s", out.KillReason)
		} else if out.ExitCode == 0 {
			verdict = "privilege denied"
		}
		fmt.Printf("%-12s %s\n", label+":", verdict)
	}

	// CFI alone: the overflow touches no code pointer, so the attack wins.
	run("hq-cfi", hq.DefaultOptions())

	// CFI + DFI: the flag's read is checked against its writer set.
	withDFI := hq.DefaultOptions()
	withDFI.DFI = true
	run("hq-cfi+dfi", withDFI)
}
