package herqules

import (
	"testing"

	"herqules/internal/vm"
)

// buildAPIVictim builds, through the public facade, a program that calls a
// function pointer. With corrupt set, the pointer is overwritten through an
// integer alias before dispatch, so the call lands in the attacker, whose
// payload reaches an ungated exploit marker and then a gated exit(99).
func buildAPIVictim(t *testing.T, corrupt bool) *Module {
	t.Helper()
	mod := NewModule("api-victim")
	b := NewBuilder(mod)
	sig := FuncTypeOf(I64Type, I64Type)

	b.Func("attacker", sig, "x") // function #0: payload
	b.Syscall(vm.SysMarkExploit)
	b.Syscall(SysExit, ConstInt(99))
	b.Ret(ConstInt(0))

	legit := b.Func("legit", sig, "x")
	b.Ret(b.Add(legit.Params[0], ConstInt(1)))

	b.Func("main", FuncTypeOf(I64Type))
	slot := b.Cast(b.Malloc(ConstInt(16)), PtrType(PtrType(sig)))
	b.Store(b.FuncAddr(legit), slot)
	if corrupt {
		// Corrupt through an integer alias, as an overflow would.
		b.Store(ConstInt(StaticFuncAddr(0)), b.Cast(slot, PtrType(I64Type)))
	}
	fp := b.Load(slot)
	r := b.ICall(fp, sig, ConstInt(41))
	b.Syscall(SysWrite, r)
	b.Syscall(SysExit, ConstInt(0))
	b.Ret(ConstInt(0))
	mod.Finalize()
	if err := Validate(mod); err != nil {
		t.Fatal(err)
	}
	return mod
}

// killing is the enforcement configuration: violations kill (§3.4).
var killing = []SystemOption{WithKillOnViolation(true)}

// TestPublicAPIEndToEnd runs the victim through Run under each design and
// configuration, in deterministic inline mode.
func TestPublicAPIEndToEnd(t *testing.T) {
	counterCFI, err := PolicySet("counter", "cfi")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		design  Design
		corrupt bool
		sys     []SystemOption
		opts    []RunOption
		check   func(t *testing.T, out *Outcome)
	}{
		{"clean", HQSfeStk, false, killing, nil, func(t *testing.T, out *Outcome) {
			wantClean(t, out)
			if out.MessagesProcessed == 0 {
				t.Error("no messages reached the verifier")
			}
			if out.Entries < 0 || out.MaxEntries < 1 {
				t.Errorf("entries = %d/%d", out.Entries, out.MaxEntries)
			}
		}},
		// Without HQ there are no sync messages; if the kernel gated a
		// baseline, its system calls would hit the epoch and kill it.
		{"baseline-clean", Baseline, false, killing, nil, wantClean},
		{"baseline-attack", Baseline, true, killing, nil, func(t *testing.T, out *Outcome) {
			if out.ExitCode != 99 || !out.ExploitMarker {
				t.Errorf("exit=%d marker=%t, want the attacker's 99 and marker", out.ExitCode, out.ExploitMarker)
			}
		}},
		// The kill lands before the payload's first system call, even the
		// ungated marker: inline delivery checks at the transfer itself.
		{"hqsfestk-attack", HQSfeStk, true, killing, nil, func(t *testing.T, out *Outcome) {
			if !out.Killed {
				t.Fatal("attack not caught")
			}
			if out.ExploitMarker || out.ExitCode == 99 || len(out.Output) != 0 {
				t.Errorf("side effects after the violation: marker=%t exit=%d output=%v",
					out.ExploitMarker, out.ExitCode, out.Output)
			}
		}},
		{"hqretptr-attack", HQRetPtr, true, killing, nil, func(t *testing.T, out *Outcome) {
			if !out.Killed {
				t.Errorf("attack not caught (%s)", out.KillReason)
			}
		}},
		// Monitoring mode records the violation without killing; the hijack
		// really runs, since bounded asynchrony does not roll back the
		// transfer, it only gates side effects when killing is enabled.
		{"monitoring", HQSfeStk, true, nil, nil, func(t *testing.T, out *Outcome) {
			if out.Killed {
				t.Error("killed in monitoring mode")
			}
			if len(out.PolicyViolations) == 0 {
				t.Error("violation not recorded")
			}
			if !out.ExploitMarker {
				t.Error("hijacked call suppressed in monitoring mode")
			}
		}},
		{"custom-policies", HQSfeStk, false, []SystemOption{WithPolicyFactory(counterCFI)}, nil, wantClean},
		{"missing-entry", HQSfeStk, false, nil, []RunOption{WithEntry("nonexistent")}, func(t *testing.T, out *Outcome) {
			if out.Err == nil {
				t.Error("missing entry did not error")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ins, err := Instrument(buildAPIVictim(t, tc.corrupt), tc.design, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			out, err := Run(ins, tc.sys, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, out)
		})
	}
}

// wantClean requires an unharmed run of the uncorrupted victim.
func wantClean(t *testing.T, out *Outcome) {
	t.Helper()
	if out.Killed || out.Err != nil {
		t.Errorf("clean run: killed=%t (%s) err=%v", out.Killed, out.KillReason, out.Err)
	}
	if len(out.Output) != 1 || out.Output[0] != 42 {
		t.Errorf("output = %v, want [42]", out.Output)
	}
}

// concurrentChannels names every transport WithChannel can select.
var concurrentChannels = []struct {
	name string
	kind ChannelKind
}{
	{"shm", SharedRing}, {"fpga", FPGA}, {"uarch-model", UArchModel},
	{"uarch-sim", UArchSim}, {"mq", MessageQueue}, {"pipe", Pipe},
}

// runOverChannel instruments the victim under HQSfeStk and runs it with
// kills on over a fresh channel of the given kind.
func runOverChannel(t *testing.T, corrupt bool, kind ChannelKind) *Outcome {
	t.Helper()
	ins, err := Instrument(buildAPIVictim(t, corrupt), HQSfeStk, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(kind)
	if err != nil {
		t.Fatalf("NewChannel(%v): %v", kind, err)
	}
	out, err := Run(ins, killing, WithChannel(ch))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPublicAPIConcurrentChannels: WithChannel switches Run from inline
// delivery to a concurrent transport, and the uncorrupted victim runs
// unharmed over every one of them.
func TestPublicAPIConcurrentChannels(t *testing.T) {
	for _, tc := range concurrentChannels {
		t.Run(tc.name, func(t *testing.T) {
			out := runOverChannel(t, false, tc.kind)
			wantClean(t, out)
			if out.MessagesProcessed == 0 {
				t.Error("no messages reached the verifier")
			}
		})
	}
}

// TestConcurrentModeOverEveryTransport: over every concurrent transport the
// attack is killed before its gated payload commits.
func TestConcurrentModeOverEveryTransport(t *testing.T) {
	for _, tc := range concurrentChannels {
		t.Run(tc.name, func(t *testing.T) {
			out := runOverChannel(t, true, tc.kind)
			if !out.Killed {
				t.Error("attack not caught over concurrent channel")
			}
			// Bounded asynchrony's guarantee is about gated side effects:
			// the payload's exit must never commit. (Its ungated marker,
			// the RIPE execve exemption, can race the verifier here.)
			if out.ExitCode == 99 {
				t.Error("payload's gated syscall committed")
			}
		})
	}
}

func TestCounterPolicyThroughFacade(t *testing.T) {
	mod := NewModule("count")
	b := NewBuilder(mod)
	b.Func("main", FuncTypeOf(I64Type))
	for i := 0; i < 7; i++ {
		b.Runtime(RTCounterInc, ConstInt(2))
	}
	b.Ret(ConstInt(0))
	mod.Finalize()

	ins, err := Instrument(mod, HQSfeStk, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	set, err := PolicySet("cfi", "counter")
	if err != nil {
		t.Fatal(err)
	}
	policies := set()
	cnt := policies[1].(*CounterPolicy)
	_, err = Run(ins, []SystemOption{WithPolicyFactory(func() []Policy { return policies })})
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Count(2) != 7 {
		t.Errorf("counter = %d, want 7", cnt.Count(2))
	}
}

func TestCostModelFacade(t *testing.T) {
	cm := DefaultCostModel().WithMessaging(MessageCost(8))
	if cm.MessageSend != 40 {
		t.Errorf("MessageCost(8ns) = %d cycles, want 40 at 5GHz", cm.MessageSend)
	}
	ins, err := Instrument(buildAPIVictim(t, true), Baseline, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(ins, nil, WithCost(cm))
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Cycles == 0 {
		t.Error("no cycles accounted")
	}
}
