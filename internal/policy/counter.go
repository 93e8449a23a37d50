package policy

import "herqules/internal/ipc"

// Counter is the toy policy from the paper's §2 overview: reliably count
// function calls (or any event classes) made by the monitored program. An
// in-process counter could be corrupted by the program's own bugs; holding
// it in the verifier behind append-only messages makes it trustworthy even
// after total program compromise.
type Counter struct {
	Hooks
	counts map[uint64]uint64
	// Limit, when non-zero, turns the counter into a watchdog: exceeding
	// it for any class is a violation (e.g. "this program must not call
	// exec more than once").
	Limit uint64
}

// NewCounter creates a counter policy with no limit.
func NewCounter() *Counter {
	return &Counter{counts: make(map[uint64]uint64)}
}

// Name implements Policy.
func (c *Counter) Name() string { return "counter" }

// Entries implements Policy.
func (c *Counter) Entries() int { return len(c.counts) }

// Clone implements Policy.
func (c *Counter) Clone() Policy {
	n := NewCounter()
	n.Limit = c.Limit
	for k, v := range c.counts {
		n.counts[k] = v
	}
	return n
}

// Ops implements Policy.
func (c *Counter) Ops() ipc.OpSet { return ipc.OpsOf(ipc.OpCounterInc) }

// Handle implements Policy.
func (c *Counter) Handle(m ipc.Message) *Violation {
	if m.Op != ipc.OpCounterInc {
		return nil
	}
	c.counts[m.Arg1]++
	if c.Limit > 0 && c.counts[m.Arg1] > c.Limit {
		return &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1, Value: c.counts[m.Arg1],
			Reason: "event count exceeded configured limit"}
	}
	return nil
}

// Count returns the current count for an event class.
func (c *Counter) Count(class uint64) uint64 { return c.counts[class] }

var _ Policy = (*Counter)(nil)
