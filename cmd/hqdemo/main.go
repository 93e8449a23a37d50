// Command hqdemo walks through the Figure 1 interaction end to end, with a
// real concurrent AppendWrite channel: a monitored program registers with
// the kernel, streams messages to the verifier, gets its system calls gated
// by bounded asynchronous validation, is attacked, and dies before the
// attacker's payload can make a system call.
//
// Usage: hqdemo [-channel fpga|model|shm|mq]
package main

import (
	"flag"
	"fmt"
	"log"

	hq "herqules"
)

func main() {
	channel := flag.String("channel", "fpga", "AppendWrite transport: fpga, model, shm, mq")
	flag.Parse()

	var kind hq.ChannelKind
	switch *channel {
	case "fpga":
		kind = hq.FPGA
	case "model":
		kind = hq.UArchModel
	case "shm":
		kind = hq.SharedRing
	case "mq":
		kind = hq.MessageQueue
	default:
		log.Fatalf("unknown channel %q", *channel)
	}

	mod := buildVictim()
	if err := hq.Validate(mod); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== HerQules demo: hijacked dispatch under bounded asynchronous validation ==")
	fmt.Printf("transport: AppendWrite via %q\n\n", *channel)

	run := func(design hq.Design, label string) {
		ins, err := hq.Instrument(mod, design, hq.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		ch, err := hq.NewChannel(kind)
		if err != nil {
			log.Fatal(err)
		}
		out, err := hq.Run(ins, []hq.SystemOption{hq.WithKillOnViolation(true)}, hq.WithChannel(ch))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s exit=%-3d killed=%-5t hijack-payload-ran=%t",
			label, out.ExitCode, out.Killed, out.ExitCode == 99)
		if out.Killed {
			fmt.Printf("  (%s)", out.KillReason)
		}
		fmt.Println()
	}

	run(hq.Baseline, "baseline:")
	run(hq.HQSfeStk, "hq-cfi:")
	fmt.Println("\nUnder HQ-CFI the Pointer-Check message reaches the verifier before the")
	fmt.Println("attacker's system call can execute; the kernel kills the process first.")
}

// buildVictim: a heap overflow corrupts an adjacent callback pointer with
// the attacker function's hardcoded (ASLR-off) address, then dispatches.
func buildVictim() *hq.Module {
	mod := hq.NewModule("demo-victim")
	b := hq.NewBuilder(mod)
	sig := hq.FuncTypeOf(hq.I64Type, hq.I64Type)

	attacker := b.Func("attacker", sig, "x") // function #0
	b.Syscall(hq.SysExit, hq.ConstInt(99))
	b.Ret(hq.ConstInt(0))
	_ = attacker

	legit := b.Func("legit", sig, "x")
	b.Ret(b.Add(legit.Params[0], hq.ConstInt(1)))

	b.Func("main", hq.FuncTypeOf(hq.I64Type))
	buf := b.Malloc(hq.ConstInt(32))
	slot := b.Cast(b.Malloc(hq.ConstInt(16)), hq.PtrType(hq.PtrType(sig)))
	b.Store(b.FuncAddr(legit), slot)
	words := b.Cast(buf, hq.PtrType(hq.I64Type))
	for i := 0; i < 5; i++ { // one word too many
		b.Store(hq.ConstInt(hq.StaticFuncAddr(0)), b.IndexAddr(words, hq.ConstInt(uint64(i))))
	}
	fp := b.Load(slot)
	r := b.ICall(fp, sig, hq.ConstInt(41))
	b.Syscall(hq.SysWrite, r)
	b.Syscall(hq.SysExit, hq.ConstInt(0))
	b.Ret(hq.ConstInt(0))
	mod.Finalize()
	return mod
}
