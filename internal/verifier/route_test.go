package verifier

import (
	"testing"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/kernel"
	"herqules/internal/policy"
)

func defaultSetFactory() []policy.Policy { return policy.MustSet(policy.DefaultSet...) }

// TestOutOfRangeOpsReachNoPolicy sends undefined op codes down a real ring
// into a one-shard pump shared by two processes. A monitored program can
// write any Op, so a bad index into the per-op route would poison the shard
// for every co-resident process. The undefined ops must reach no policy,
// yet still be counted and sequence-checked, and the next syscall gate of
// both processes must open.
func TestOutOfRangeOpsReachNoPolicy(t *testing.T) {
	v := NewSharded(defaultSetFactory, nil, 1)
	v.CheckSeq = true
	k := kernel.New(v)
	v.gate = k
	k.Epoch = 5 * time.Second
	ps := v.NewPumpSet()
	t.Cleanup(ps.Close) // runs last: after every channel below is closed

	attach := func() (int32, *ipc.Channel, <-chan struct{}) {
		t.Helper()
		pid := k.Register()
		ch := ipc.NewSharedRing(64)
		done, err := ps.Attach(ch.Receiver)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ch.Close() })
		return pid, ch, done
	}
	victim, ch, done := attach()
	neighbour, nch, ndone := attach()

	send := []ipc.Message{
		{Op: ipc.OpPointerDefine, Arg1: 0x10, Arg2: 0x20},
		{Op: ipc.NumOps, Arg1: 0xdead},
		{Op: 0xFFFF, Arg1: 0xdead},
		{Op: 0xFFFFFFFF, Arg1: 0xdead, Arg2: 0xbad},
		{Op: ipc.OpPointerCheck, Arg1: 0x10, Arg2: 0x20},
		{Op: ipc.OpSyscall, Arg1: 1},
	}
	for _, m := range send {
		m.PID = victim
		if err := ch.Sender.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.SyscallEnter(victim, 1); err != nil {
		t.Fatalf("gate after undefined ops: %v", err)
	}
	if err := nch.Sender.Send(ipc.Message{Op: ipc.OpSyscall, PID: neighbour, Arg1: 1}); err != nil {
		t.Fatal(err)
	}
	if err := k.SyscallEnter(neighbour, 1); err != nil {
		t.Fatalf("co-resident gate: %v", err)
	}
	ch.Close()
	nch.Close()
	<-done
	<-ndone

	if n := v.PoisonedShards(); n != 0 {
		t.Fatalf("%d shards poisoned by undefined ops", n)
	}
	if got := v.Messages(victim); got != uint64(len(send)) {
		t.Errorf("Messages = %d, want %d (undefined ops still count)", got, len(send))
	}
	if vs := v.Violations(victim); len(vs) != 0 {
		t.Errorf("undefined ops raised violations: %v", vs)
	}
	if cur, _ := v.Entries(victim); cur != 1 {
		t.Errorf("Entries = %d, want 1", cur)
	}
}

// TestRouteKeepsChainOrder attaches two policies that own the same ops: a
// double free violates both, and the kill goes to the first in the chain.
func TestRouteKeepsChainOrder(t *testing.T) {
	for _, chain := range [][]string{{"temporal", "memsafety"}, {"memsafety", "temporal"}} {
		g := newFakeGate()
		factory, err := policy.SetFactory(chain...)
		if err != nil {
			t.Fatal(err)
		}
		v := New(factory, g)
		v.ProcessStarted(1)
		v.DeliverBatch([]ipc.Message{
			{Op: ipc.OpAllocCreate, PID: 1, Arg1: 0x1000, Arg2: 64},
			{Op: ipc.OpAllocDestroy, PID: 1, Arg1: 0x1000},
			{Op: ipc.OpAllocDestroy, PID: 1, Arg1: 0x1000},
		})
		vs := v.Violations(1)
		if len(vs) != 2 || vs[0].Policy != chain[0] || vs[1].Policy != chain[1] {
			t.Fatalf("chain %v: violations %v, want one from each in chain order", chain, vs)
		}
		if g.kills[1] != vs[0].Reason {
			t.Errorf("chain %v: kill reason %q, want the first violator's %q", chain, g.kills[1], vs[0].Reason)
		}
	}
}

// routedStream decodes fuzz input into a two-process message stream. The
// first byte chooses KillOnViolation; every following 4-byte group is one
// message: b0 picks the process, b1 the op (wrapping past the defined range
// onto two undefined ops), b2 the address Arg1 — one of 16 eight-byte slots,
// so that defines, checks, frees and DFI sets collide — and b3 the rest:
// Arg2 is a small size or value, or with bit 4 set another slot address
// (a check-base partner, a copy destination, a DFI set), and Arg3 a small
// block length. Sequence numbers are consecutive per process.
func routedStream(data []byte) (kill bool, ms []ipc.Message) {
	const slotBase = 0x1000
	if len(data) == 0 {
		return true, nil
	}
	kill, data = data[0]&1 == 0, data[1:]
	var seq [2]uint64
	for ; len(data) >= 4 && len(ms) < 4096; data = data[4:] {
		p := data[0] & 1
		op := ipc.Op(data[1]) % (ipc.NumOps + 2)
		if op == ipc.NumOps+1 {
			op = 0xFFFFFFFF
		}
		seq[p]++
		ms = append(ms, ipc.Message{
			Op:   op,
			PID:  int32(1 + p),
			Arg1: slotBase + 8*uint64(data[2]&15),
			Arg2: slotBase*uint64(data[3]>>4&1) + 8*uint64(data[3]&15),
			Arg3: 8 * uint64(data[3]>>5),
			Seq:  seq[p],
		})
	}
	return kill, ms
}

// refProc is one process of the reference delivery.
type refProc struct {
	policies   []policy.Policy
	violations []*policy.Violation
	messages   uint64
	syncs      int
	dead       bool
}

// refDeliver is the verifier's policy engine without routing: every message
// of a live process goes to every policy's Handle in chain order.
func refDeliver(kill bool, ms []ipc.Message) map[int32]*refProc {
	procs := map[int32]*refProc{1: {policies: defaultSetFactory()}, 2: {policies: defaultSetFactory()}}
	for _, m := range ms {
		p := procs[m.PID]
		if p.dead {
			continue
		}
		p.messages++
		var first *policy.Violation
		for _, pol := range p.policies {
			if viol := pol.Handle(m); viol != nil {
				if viol.Policy == "" {
					viol.Policy = pol.Name()
				}
				p.violations = append(p.violations, viol)
				if first == nil {
					first = viol
				}
			}
		}
		if first != nil && kill {
			p.dead = true
			continue
		}
		if m.Op == ipc.OpSyscall && (len(p.violations) == 0 || !kill) {
			p.syncs++
		}
	}
	return procs
}

func (p *refProc) entries() (cur, max int) {
	for _, pol := range p.policies {
		cur += pol.Entries()
		if mp, ok := pol.(interface{ MaxEntries() int }); ok {
			max += mp.MaxEntries()
		}
	}
	return cur, max
}

// FuzzDeliverRouted checks that per-op routing decides exactly what calling
// every policy on every message decides: the same violations in the same
// order, the same kills and gate openings, the same message counts and
// metadata entries.
func FuzzDeliverRouted(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		kill, ms := routedStream(data)
		want := refDeliver(kill, ms)

		g := newFakeGate()
		v := NewSharded(defaultSetFactory, g, 2)
		v.CheckSeq = true
		v.KillOnViolation = kill
		v.ProcessStarted(1)
		v.ProcessStarted(2)
		v.DeliverBatch(ms)

		syncs := map[int32]int{}
		for _, pid := range g.syncs {
			syncs[pid]++
		}
		for pid, ref := range want {
			got := v.Violations(pid)
			if len(got) != len(ref.violations) {
				t.Fatalf("pid %d: %d violations, reference %d:\n got %v\nwant %v",
					pid, len(got), len(ref.violations), got, ref.violations)
			}
			for i, gv := range got {
				rv := ref.violations[i]
				if gv.Policy != rv.Policy || gv.Op != rv.Op || gv.Addr != rv.Addr || gv.Reason != rv.Reason {
					t.Fatalf("pid %d violation %d: got %v, reference %v", pid, i, gv, rv)
				}
			}
			if _, killed := g.kills[pid]; killed != ref.dead {
				t.Errorf("pid %d: killed %t, reference %t", pid, killed, ref.dead)
			} else if killed && g.kills[pid] != ref.violations[0].Reason {
				t.Errorf("pid %d: kill reason %q, reference %q", pid, g.kills[pid], ref.violations[0].Reason)
			}
			if got := v.Messages(pid); got != ref.messages {
				t.Errorf("pid %d: Messages = %d, reference %d", pid, got, ref.messages)
			}
			if syncs[pid] != ref.syncs {
				t.Errorf("pid %d: %d gate openings, reference %d", pid, syncs[pid], ref.syncs)
			}
			cur, max := v.Entries(pid)
			if rc, rm := ref.entries(); cur != rc || max != rm {
				t.Errorf("pid %d: Entries = %d/%d, reference %d/%d", pid, cur, max, rc, rm)
			}
		}
	})
}
