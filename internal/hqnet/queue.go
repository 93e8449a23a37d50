package hqnet

import (
	"sync"

	"herqules/internal/ipc"
)

// sessionQueue is the bounded hand-off between a session's connection reader
// and the verifier pump: the reader hands over each read burst's data frames
// exactly as they arrived on the wire (Seq and Mac preserved verbatim — the
// resume protocol and the hmac sealer both depend on the daemon never
// re-stamping a frame), and the pump drains it through the
// ipc.BatchReceiver interface like any local channel.
//
// SendBatch blocks while the queue is full. That is the admission-side
// backpressure story: a client outrunning the verifier stops being read,
// which backs up into the transport's own flow control, instead of growing
// an unbounded in-daemon queue. If the verifier is wedged long enough, the
// stalled reader stops renewing the session's lease and the process dies
// fail-closed — the networked analogue of the epoch watchdog.
type sessionQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []ipc.Message
	store  []ipc.Message // backing array of buf: compacted, regrown only while too small
	slots  int
	closed bool
	peak   uint64
}

func newSessionQueue(slots int) *sessionQueue {
	if slots <= 0 {
		slots = 1024
	}
	q := &sessionQueue{slots: slots}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// SendBatch enqueues ms in order under one lock and one wake-up per fill,
// blocking while the queue is at capacity. Returns ipc.ErrClosed once the
// queue is closed.
func (q *sessionQueue) SendBatch(ms []ipc.Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(ms) > 0 {
		for len(q.buf) >= q.slots && !q.closed {
			q.cond.Wait()
		}
		if q.closed {
			return ipc.ErrClosed
		}
		k := min(q.slots-len(q.buf), len(ms))
		if cap(q.buf)-len(q.buf) < k && cap(q.store) >= len(q.buf)+k {
			q.buf = append(q.store[:0], q.buf...) // slide the live frames to the front
		}
		q.buf = append(q.buf, ms[:k]...)
		if cap(q.buf) > cap(q.store) {
			q.store = q.buf[:0] // grew: adopt the larger backing array
		}
		ms = ms[k:]
		q.peak = max(q.peak, uint64(len(q.buf)))
		q.cond.Broadcast()
	}
	return nil
}

// Close ends the queue: pending frames remain receivable (the pump drains
// them), further Sends fail, and a blocked receiver wakes.
func (q *sessionQueue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
	return nil
}

// Recv implements ipc.Receiver.
func (q *sessionQueue) Recv() (ipc.Message, bool, error) {
	var one [1]ipc.Message
	n, ok, err := q.RecvBatch(one[:])
	if n == 1 {
		return one[0], true, err
	}
	return ipc.Message{}, ok, err
}

// RecvBatch implements ipc.BatchReceiver: blocks until at least one frame is
// queued or the queue is closed and drained.
func (q *sessionQueue) RecvBatch(out []ipc.Message) (int, bool, error) {
	if len(out) == 0 {
		return 0, true, nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.buf) == 0 {
		return 0, false, nil
	}
	n := copy(out, q.buf)
	q.buf = q.buf[n:]
	q.cond.Broadcast()
	return n, true, nil
}

// Pending implements ipc.Pender (the pump's queue-depth probe).
func (q *sessionQueue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// PendingPeak implements ipc.PeakPender for per-PID backpressure attribution.
func (q *sessionQueue) PendingPeak() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.peak
}

var (
	_ ipc.Receiver      = (*sessionQueue)(nil)
	_ ipc.BatchReceiver = (*sessionQueue)(nil)
	_ ipc.Pender        = (*sessionQueue)(nil)
	_ ipc.PeakPender    = (*sessionQueue)(nil)
)
