package uarch

import (
	"runtime"
	"sync"
	"sync/atomic"

	"herqules/internal/ipc"
	"herqules/internal/mem"
)

// MultiCore models the multi-writer configuration of §2.3.2: AMRs are
// configured through core-local registers, so cross-core writers are not
// supported — instead each writer core is assigned a unique AMR, and a
// single reader core iteratively receives messages from all mapped AMRs.
//
// Most execution policies, including control-flow integrity, need no
// cross-core message ordering; when a policy does, each message can carry
// the value of a global counter (the processor timestamp counter), which
// CoreSender stamps into Arg3 when ordering is enabled (§4.3).
type MultiCore struct {
	devices []*Device
	// tsc is the shared timestamp counter used for optional ordering.
	tsc atomic.Uint64

	mu     sync.Mutex
	closed int // count of closed writers
}

// NewMultiCore maps one AMR of amrSize bytes per core inside memory,
// starting at base, with a one-page gap between AMRs. The devices share one
// lock, because they share one Memory.
func NewMultiCore(memory *mem.Memory, base uint64, cores int, amrSize uint64) (*MultiCore, error) {
	mc := &MultiCore{}
	mu := new(sync.Mutex)
	addr := base
	for i := 0; i < cores; i++ {
		d, err := newDevice(memory, addr, amrSize, mu)
		if err != nil {
			return nil, err
		}
		mc.devices = append(mc.devices, d)
		addr += amrSize + mem.PageSize
	}
	return mc, nil
}

// Cores reports the number of writer cores.
func (mc *MultiCore) Cores() int { return len(mc.devices) }

// CoreSender is one core's writer endpoint.
type CoreSender struct {
	mc   *MultiCore
	core int
	// Ordered stamps each message's Arg3 with the global timestamp
	// counter, enabling cross-core ordering at the reader (§4.3).
	Ordered bool
}

// Sender returns the writer endpoint for a core.
func (mc *MultiCore) Sender(core int) *CoreSender {
	return &CoreSender{mc: mc, core: core}
}

// Send implements ipc.Sender for the core.
func (s *CoreSender) Send(m ipc.Message) error {
	if s.Ordered {
		m.Arg3 = s.mc.tsc.Add(1)
	}
	return s.mc.devices[s.core].Append(m)
}

// Close implements ipc.Sender.
func (s *CoreSender) Close() error {
	s.mc.mu.Lock()
	s.mc.closed++
	s.mc.mu.Unlock()
	return s.mc.devices[s.core].Close()
}

var _ ipc.Sender = (*CoreSender)(nil)

// Reader is the single reader core: it polls every AMR round-robin.
type Reader struct {
	mc   *MultiCore
	next int
}

// Reader returns the reader endpoint.
func (mc *MultiCore) Reader() *Reader { return &Reader{mc: mc} }

// TryRecv returns the next available message from any AMR (round-robin),
// without blocking.
func (r *Reader) TryRecv() (ipc.Message, bool, error) {
	n := len(r.mc.devices)
	for i := 0; i < n; i++ {
		d := r.mc.devices[(r.next+i)%n]
		m, ok, err := d.TryRecv()
		if err != nil {
			return m, ok, err
		}
		if ok {
			r.next = (r.next + i + 1) % n
			return m, true, nil
		}
	}
	return ipc.Message{}, false, nil
}

// Recv blocks until a message is available on any AMR, or every writer has
// closed and all AMRs are drained.
func (r *Reader) Recv() (ipc.Message, bool, error) {
	for {
		m, ok, err := r.TryRecv()
		if ok || err != nil {
			return m, ok, err
		}
		r.mc.mu.Lock()
		done := r.mc.closed == len(r.mc.devices)
		r.mc.mu.Unlock()
		if done {
			// Final drain pass: a writer may have appended between
			// our scan and its close.
			if m, ok, err := r.TryRecv(); ok || err != nil {
				return m, ok, err
			}
			return ipc.Message{}, false, nil
		}
	}
}

// RecvBatch implements ipc.BatchReceiver: one sweep over the AMRs fills out
// with every pending message (up to len(out)), taking each device lock once
// per sweep instead of once per message. Per-AMR (and therefore per-writer)
// message order is preserved; cross-core order is policy-irrelevant or
// recovered from the timestamp in Arg3 (§4.3).
func (r *Reader) RecvBatch(out []ipc.Message) (int, bool, error) {
	if len(out) == 0 {
		return 0, true, nil
	}
	for {
		total := 0
		n := len(r.mc.devices)
		advance := 0
		for i := 0; i < n && total < len(out); i++ {
			d := r.mc.devices[(r.next+i)%n]
			k, _, err := d.TryRecvBatch(out[total:])
			total += k
			if err != nil {
				return total, false, err
			}
			advance = i + 1
		}
		if total > 0 {
			// Resume the next sweep after the last drained AMR so a
			// chatty core cannot starve the others.
			r.next = (r.next + advance) % n
			return total, true, nil
		}
		r.mc.mu.Lock()
		done := r.mc.closed == len(r.mc.devices)
		r.mc.mu.Unlock()
		if done {
			for i := 0; i < n && total < len(out); i++ {
				k, _, err := r.mc.devices[i].TryRecvBatch(out[total:])
				total += k
				if err != nil {
					return total, false, err
				}
			}
			return total, total > 0, nil
		}
		runtime.Gosched()
	}
}

// Pending implements ipc.Pender: total appended-but-unread messages across
// every AMR.
func (r *Reader) Pending() int {
	total := 0
	for _, d := range r.mc.devices {
		total += d.Pending()
	}
	return total
}

var (
	_ ipc.Receiver      = (*Reader)(nil)
	_ ipc.BatchReceiver = (*Reader)(nil)
	_ ipc.Pender        = (*Reader)(nil)
)
