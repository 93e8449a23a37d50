// Webserver example: an NGINX-like request loop running under HerQules in
// *concurrent* mode — messages travel through a real AppendWrite-FPGA model
// channel to a verifier goroutine, and every system call is genuinely gated
// by bounded asynchronous validation (§2.2): the kernel pauses it until the
// verifier confirms all in-flight messages checked out.
//
// Run with: go run ./examples/webserver
package main

import (
	"fmt"
	"log"
	"time"

	hq "herqules"
)

// buildServer constructs the request loop: accept/read (syscalls), parse,
// dispatch through per-connection handler pointers, write (syscall).
func buildServer(requests int) *hq.Module {
	mod := hq.NewModule("webserver")
	b := hq.NewBuilder(mod)
	sig := hq.FuncTypeOf(hq.I64Type, hq.I64Type)

	handlers := make([]*hq.Func, 3)
	for i := range handlers {
		h := b.Func(fmt.Sprintf("handle_route%d", i), sig, "req")
		b.Ret(b.Bin(hq.BinXor, h.Params[0], hq.ConstInt(uint64(0x1000+i))))
		handlers[i] = h
	}

	conn := b.Global("conn", hq.StructTypeOf("conn", hq.I64Type, hq.PtrType(sig)), "data")
	routes := b.Global("routes", hq.ArrayTypeOf(hq.PtrType(sig), 3), "data")
	for i, h := range handlers {
		routes.InitFuncs[i] = h
		h.AddressTaken = true
	}

	b.Func("main", hq.FuncTypeOf(hq.I64Type))
	served := b.Alloca("served", hq.I64Type)
	b.Store(hq.ConstInt(0), served)
	entry := b.Blk
	head := b.Block("head")
	body := b.Block("body")
	done := b.Block("done")
	b.Br(head)
	b.SetBlock(head)
	i := b.Phi(hq.I64Type, hq.ConstInt(0), entry)
	b.CondBr(b.Cmp(hq.CmpLt, i, hq.ConstInt(uint64(requests))), body, done)
	b.SetBlock(body)
	b.Syscall(hq.SysSend) // accept
	b.Syscall(hq.SysSend) // read
	// Parse: derive the route.
	route := b.Bin(hq.BinRem, i, hq.ConstInt(3))
	// Look up the route handler and install it on the connection, then
	// dispatch. Each store emits a Pointer-Define, each load a
	// Pointer-Check.
	h := b.Load(b.IndexAddr(routes, route))
	b.Store(h, b.FieldAddr(conn, 1))
	fp := b.Load(b.FieldAddr(conn, 1))
	b.ICall(fp, sig, i)
	b.Syscall(hq.SysSend) // write response
	b.Store(b.Add(b.Load(served), hq.ConstInt(1)), served)
	i1 := b.Add(i, hq.ConstInt(1))
	i.Args, i.PhiBlocks = append(i.Args, i1), append(i.PhiBlocks, b.Blk)
	b.Br(head)
	b.SetBlock(done)
	out := b.Load(served)
	b.Syscall(hq.SysWrite, out)
	b.Syscall(hq.SysExit, hq.ConstInt(0))
	b.Ret(hq.ConstInt(0))
	mod.Finalize()
	return mod
}

func main() {
	const requests = 2000
	mod := buildServer(requests)
	if err := hq.Validate(mod); err != nil {
		log.Fatal(err)
	}
	ins, err := hq.Instrument(mod, hq.HQSfeStk, hq.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// A real concurrent AppendWrite-FPGA channel: program goroutine sends,
	// verifier goroutine pumps, kernel gates each syscall on confirmation.
	ch, err := hq.NewChannel(hq.FPGA)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	out, err := hq.Run(ins, []hq.SystemOption{hq.WithKillOnViolation(true)}, hq.WithChannel(ch))
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	if out.Killed || out.Err != nil {
		log.Fatalf("server died: killed=%t err=%v", out.Killed, out.Err)
	}
	fmt.Printf("served %d requests in %v (%.0f req/s wall-clock, concurrent verification)\n",
		out.Output[0], elapsed.Round(time.Millisecond),
		float64(out.Output[0])/elapsed.Seconds())
	fmt.Printf("messages verified: %d; syscalls gated: %d; violations: %d\n",
		out.MessagesProcessed, out.Stats.Syscalls, len(out.PolicyViolations))
}
