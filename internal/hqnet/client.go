package hqnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/vm"
)

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	// Network and Addr name the daemon ("tcp", "127.0.0.1:9411" or "unix",
	// "/run/hqd.sock").
	Network, Addr string

	// Tenant identifies the client for per-tenant admission quotas.
	Tenant uint64

	// DialTimeout bounds one connection attempt (<= 0 selects 2s).
	DialTimeout time.Duration

	// ResumeAttempts bounds reconnection tries per outage (<= 0 selects 8).
	// Exhausting them declares the session dead; the daemon's lease has
	// long since disposed of the process by then.
	ResumeAttempts int

	// ReplaySlots bounds the replay ring of unacked encoded frames, which is
	// also the client's write buffer (<= 0 selects 512: 24 KiB per client,
	// room for two 256-frame write batches, one on the wire awaiting its ack
	// while the next fills). A full ring blocks Send — bounded memory,
	// backpressure up into the monitored program, exactly like a full local
	// channel.
	ReplaySlots int

	// HeartbeatEvery overrides the lease-renewal cadence (0 selects a
	// quarter of the daemon-granted lease).
	HeartbeatEvery time.Duration

	// WrapConn, when non-nil, wraps every dialed connection — the chaos
	// plane's hook for injecting connection-level faults.
	WrapConn func(net.Conn) net.Conn
}

// RejectedError is a daemon refusal (admission or resume): terminal, never
// retried.
type RejectedError struct{ Code uint64 }

func (e *RejectedError) Error() string { return "hqnet: rejected: " + RejectText(e.Code) }

// Client is the monitored-program side of a session: an ipc.Sender whose
// frames survive transport loss (replay-from-last-ack on resume), a vm.Gate
// that runs bounded asynchronous validation on the daemon, and a heartbeat
// loop that keeps the process's lease alive. A Client whose transport dies
// reconnects with bounded, jittered, context-cancellable backoff; a Client
// that cannot get back in declares itself dead and every subsequent Send and
// gate fails — the local mirror of the daemon's fail-closed lease kill.
type Client struct {
	cfg    ClientConfig
	ctx    context.Context
	cancel context.CancelFunc

	pid   int32
	token uint64
	lease time.Duration
	key   ipc.MacKey
	keyed bool

	// wmu serializes every transport write. reconnect holds it from
	// installing a new connection until the replay is written, so no flush
	// can put a newer frame on the wire ahead of a replayed one.
	// wbufs lives here, over wseg, so a flush allocates nothing: WriteTo's
	// pointer receiver would move a local to the heap on every call.
	wmu   sync.Mutex
	wseg  [3][]byte // ring run, wrapped run, control frame
	wbufs net.Buffers
	ctrl  [ipc.MessageSize]byte // the encoded control frame of a flush

	mu      sync.Mutex
	cond    *sync.Cond
	conn    net.Conn
	gen     uint64 // connection generation; stale recvLoops detect takeover
	nextSeq uint64 // highest data Seq admitted to the replay ring
	acked   uint64 // highest Seq the daemon has acked

	// The replay ring holds encoded frames and is the write buffer: a frame
	// is in replay before it can reach the wire. Indices count frames since
	// Dial; [head, tail) is unacked, [sent, tail) is not yet written on the
	// current connection, and pinned (noPin when idle) is the first frame a
	// write in progress still reads, so its slot is not reused until the
	// write returns.
	ring                     []byte
	seqs                     []uint64 // Seq of each slot, for ack trimming
	slots                    uint64
	head, sent, tail, pinned uint64
	armed                    bool          // flush timer running
	kick                     chan struct{} // arms the flush timer

	resumes uint64
	hbOrd   uint64
	dead    bool
	deadErr string
	killed  bool
	killRsn string

	// One gate outstanding at a time (the VM is single-threaded through
	// syscalls); state kept for retransmission after resume.
	gateOrd uint64
	gateSys int
	gateCh  chan error

	wg sync.WaitGroup
}

const (
	// flushBatch is how many unwritten frames make Send flush inline.
	flushBatch = 256
	// flushDelay bounds how long a frame waits in the ring before the flush
	// timer writes it — and so how long a violation can sit in the client
	// before the verifier sees it.
	flushDelay = time.Millisecond
	noPin      = ^uint64(0)
)

// clientJitter seeds the resume backoff's splitmix64 stream.
var clientJitter atomic.Uint64

// resumeBackoff is the reconnect ladder: full jitter under an exponential
// envelope (1ms base, 50ms cap) so a rack of clients severed by one network
// event does not re-dial in lockstep.
func resumeBackoff(attempt int) time.Duration {
	const base, cap = time.Millisecond, 50 * time.Millisecond
	if attempt < 1 {
		attempt = 1
	}
	ceil := base
	if attempt > 1 {
		if shift := uint(attempt - 1); shift >= 8 {
			ceil = cap
		} else if ceil = base << shift; ceil > cap {
			ceil = cap
		}
	}
	x := clientJitter.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return 1 + time.Duration(x%uint64(ceil))
}

// Dial connects, performs the HELLO admission handshake, and starts the
// session loops. ctx governs the whole session: canceling it interrupts any
// backoff sleep and fails pending gates.
func Dial(ctx context.Context, cfg ClientConfig) (*Client, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.ResumeAttempts <= 0 {
		cfg.ResumeAttempts = 8
	}
	if cfg.ReplaySlots <= 0 {
		cfg.ReplaySlots = 512
	}
	c := &Client{cfg: cfg, slots: uint64(cfg.ReplaySlots), pinned: noPin, kick: make(chan struct{}, 1)}
	c.ring = make([]byte, cfg.ReplaySlots*ipc.MessageSize)
	c.seqs = make([]uint64, cfg.ReplaySlots)
	c.cond = sync.NewCond(&c.mu)
	c.ctx, c.cancel = context.WithCancel(ctx)

	hello := ipc.Message{Op: ipc.OpHello, Arg1: WireVersion, Arg2: cfg.Tenant}
	nc, dec, welcome, err := c.handshake(hello)
	if err != nil {
		c.cancel()
		return nil, err
	}
	c.pid = welcome.PID
	c.token = welcome.Arg1
	c.lease = time.Duration(welcome.Arg2)
	if welcome.Arg3&WelcomeKeyed != 0 {
		// The key frame is the session's trusted provisioning step; it
		// arrives immediately after the welcome, before any data flows.
		var one [1]ipc.Message
		n, _, err := dec.Decode(one[:])
		if n != 1 || err != nil || one[0].Op != ipc.OpSessionKey {
			nc.Close()
			c.cancel()
			return nil, fmt.Errorf("hqnet: key delivery failed")
		}
		c.key = ipc.MacKey{K0: one[0].Arg1, K1: one[0].Arg2}
		c.keyed = true
	}
	c.conn, c.gen = nc, 1
	c.wg.Add(2)
	go c.recvLoop(nc, dec, 1)
	go c.writeLoop()
	return c, nil
}

// handshake dials and exchanges exactly one request/welcome pair.
func (c *Client) handshake(req ipc.Message) (net.Conn, *ipc.FrameDecoder, ipc.Message, error) {
	d := net.Dialer{Timeout: c.cfg.DialTimeout}
	nc, err := d.DialContext(c.ctx, c.cfg.Network, c.cfg.Addr)
	if err != nil {
		return nil, nil, ipc.Message{}, err
	}
	if c.cfg.WrapConn != nil {
		nc = c.cfg.WrapConn(nc)
	}
	if err := ipc.NewFrameWriter(nc).WriteMessage(req); err != nil {
		nc.Close()
		return nil, nil, ipc.Message{}, err
	}
	_ = nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	dec := ipc.NewFrameDecoder(nc)
	var one [1]ipc.Message
	n, _, err := dec.Decode(one[:])
	if n != 1 {
		nc.Close()
		if err == nil {
			err = errors.New("hqnet: connection closed during handshake")
		}
		return nil, nil, ipc.Message{}, err
	}
	switch one[0].Op {
	case ipc.OpWelcome:
	case ipc.OpReject:
		nc.Close()
		return nil, nil, ipc.Message{}, &RejectedError{Code: one[0].Arg1}
	default:
		nc.Close()
		return nil, nil, ipc.Message{}, fmt.Errorf("hqnet: unexpected handshake reply %v", one[0].Op)
	}
	_ = nc.SetReadDeadline(time.Time{})
	return nc, dec, one[0], nil
}

// PID is the kernel identity the daemon assigned at admission.
func (c *Client) PID() int32 { return c.pid }

// Lease is the daemon-granted heartbeat lease.
func (c *Client) Lease() time.Duration { return c.lease }

// Resumes reports how many times the session has been resumed.
func (c *Client) Resumes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumes
}

// pidStamper fixes the process identity onto every frame before it reaches
// the sealer: the MAC covers the PID field, so it must be final at seal time
// (Client.Send's own stamp would come one layer too late and break the tag).
type pidStamper struct {
	pid int32
	s   ipc.Sender
}

func (p pidStamper) Send(m ipc.Message) error {
	m.PID = p.pid
	return p.s.Send(m)
}

func (p pidStamper) Close() error { return p.s.Close() }

// Sender returns the ipc.Sender the monitored program should emit through:
// sealed under the session key when the daemon runs an authenticated policy
// set (ipc.SealSender over the untrusted transport — the channel it was
// built for), raw otherwise.
func (c *Client) Sender() ipc.Sender {
	if c.keyed {
		return pidStamper{pid: c.pid, s: ipc.SealSender(c, c.key)}
	}
	return c
}

// Killed reports whether the daemon has positively told us the process was
// killed (kill notice or gate verdict) — the vm.Config.Killed hook.
func (c *Client) Killed() (bool, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed, c.killRsn
}

// Send implements ipc.Sender. The frame is encoded into the bounded replay
// ring (blocking while full — backpressure, not unbounded queueing) and
// written in a batch: inline once flushBatch frames are unwritten, otherwise
// by the next gate, heartbeat or Flush, or by the flush timer within
// flushDelay. A write onto a dying transport is not an error, because the
// frame replays from the ring after resume. Send only fails once the session
// is dead, and then terminally.
func (c *Client) Send(m ipc.Message) error {
	c.mu.Lock()
	for !c.dead && c.tail-min(c.head, c.pinned) >= c.slots {
		if c.sent < c.tail {
			// Full with frames still unwritten: acks only come for
			// written frames, so push them out first.
			c.mu.Unlock()
			c.flush(nil)
			c.mu.Lock()
			continue
		}
		c.cond.Wait()
	}
	if c.dead {
		reason := c.deadErr
		c.mu.Unlock()
		return fmt.Errorf("hqnet: session dead: %s", reason)
	}
	if m.Seq == 0 {
		// Raw (unsealed) mode: the client assigns the stream position, like
		// a local channel backend would. Sealed mode arrives with Seq (and
		// Mac) already bound by ipc.SealSender.
		c.nextSeq++
		m.Seq = c.nextSeq
	} else if m.Seq > c.nextSeq {
		c.nextSeq = m.Seq
	}
	m.PID = c.pid
	slot := c.tail % c.slots
	m.Encode(c.ring[slot*ipc.MessageSize:])
	c.seqs[slot] = m.Seq
	c.tail++
	full := c.tail-c.sent >= flushBatch
	arm := !full && !c.armed
	c.armed = c.armed || arm
	c.mu.Unlock()
	if full {
		c.flush(nil)
	} else if arm {
		c.kick <- struct{}{} // never blocks: one kick per arming
	}
	return nil
}

// flush writes every unwritten frame and then ctrl (when non-nil) as one
// vectored write. While the session has no connection it writes nothing:
// reconnect replays every unacked frame.
func (c *Client) flush(ctrl *ipc.Message) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	conn, lo, hi := c.conn, c.sent, c.tail
	c.sent, c.pinned = hi, lo
	c.mu.Unlock()
	if conn != nil {
		c.writeFrames(conn, lo, hi, ctrl)
	}
	c.unpin()
}

// writeFrames writes ring frames [lo, hi) and then ctrl (when non-nil) as
// one net.Buffers write of at most three segments: the run up to the ring's
// end, the wrapped run, and the control frame. The caller holds wmu and has
// pinned lo.
func (c *Client) writeFrames(conn net.Conn, lo, hi uint64, ctrl *ipc.Message) {
	c.wbufs = c.wseg[:0]
	if lo < hi {
		a, b := lo%c.slots*ipc.MessageSize, ((hi-1)%c.slots+1)*ipc.MessageSize
		if a >= b { // the run wraps past the ring's end
			c.wbufs, a = append(c.wbufs, c.ring[a:]), 0
		}
		c.wbufs = append(c.wbufs, c.ring[a:b])
	}
	if ctrl != nil {
		ctrl.Encode(c.ctrl[:])
		c.wbufs = append(c.wbufs, c.ctrl[:])
	}
	if len(c.wbufs) > 0 {
		_, _ = c.wbufs.WriteTo(conn)
	}
}

// unpin releases the slots of a finished write to Send.
func (c *Client) unpin() {
	c.mu.Lock()
	c.pinned = noPin
	c.mu.Unlock()
	c.cond.Broadcast()
}

// SyscallEnter implements vm.Gate: the gate request crosses the wire behind
// every frame sent before it, the daemon's kernel runs bounded asynchronous
// validation, and the verdict comes back. A transport loss mid-gate is
// survivable: the request is retransmitted after resume and the daemon
// replays a verdict it already computed (gate ordinals make it idempotent).
func (c *Client) SyscallEnter(pid int32, syscallNo int) error {
	c.mu.Lock()
	if c.dead {
		reason := c.deadErr
		c.mu.Unlock()
		return errors.New(reason)
	}
	c.gateOrd++
	ord := c.gateOrd
	ch := make(chan error, 1)
	c.gateCh, c.gateSys = ch, syscallNo
	req := ipc.Message{Op: ipc.OpGateEnter, PID: c.pid, Arg1: uint64(syscallNo), Arg2: ord}
	c.mu.Unlock()
	c.flush(&req)
	select {
	case err := <-ch:
		return err
	case <-c.ctx.Done():
		return errors.New("hqnet: client closed")
	}
}

// Flush writes every unwritten frame, then waits until the daemon has acked
// every admitted frame, the session dies, or the timeout lapses. Close calls
// it so a clean goodbye does not race the last data frames.
func (c *Client) Flush(timeout time.Duration) bool {
	c.flush(nil)
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		flushed := c.acked >= c.nextSeq
		dead := c.dead
		c.mu.Unlock()
		if flushed || dead {
			return flushed
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Close ends the session cleanly: flush (bounded by one lease), goodbye,
// teardown. Safe to call on a dead session. Implements ipc.Sender's Close.
func (c *Client) Close() error {
	lease := c.lease
	if lease <= 0 {
		lease = time.Second
	}
	c.Flush(lease)
	c.wmu.Lock()
	c.mu.Lock()
	alreadyDead := c.dead
	c.dead = true
	if c.deadErr == "" {
		c.deadErr = "hqnet: client closed"
	}
	conn, lo, hi := c.conn, c.sent, c.tail
	c.conn = nil
	ch := c.gateCh
	c.gateCh = nil
	c.mu.Unlock()
	if !alreadyDead && conn != nil {
		c.writeFrames(conn, lo, hi, &ipc.Message{Op: ipc.OpGoodbye, PID: c.pid})
	}
	c.wmu.Unlock()
	if ch != nil {
		ch <- errors.New("hqnet: client closed")
	}
	c.cond.Broadcast()
	c.cancel()
	if conn != nil {
		conn.Close()
	}
	c.wg.Wait()
	return nil
}

// die marks the session terminally dead: sends fail, a pending gate fails
// (the VM then terminates as killed), Send waiters wake.
func (c *Client) die(reason string) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.deadErr = reason
	conn := c.conn
	c.conn = nil
	ch := c.gateCh
	c.gateCh = nil
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if ch != nil {
		ch <- errors.New(reason)
	}
	c.cond.Broadcast()
}

// writeLoop runs the flush timer, armed by the first unwritten frame, and
// renews the lease at a quarter of its duration.
func (c *Client) writeLoop() {
	defer c.wg.Done()
	every := c.cfg.HeartbeatEvery
	if every <= 0 {
		every = c.lease / 4
	}
	if every < time.Millisecond {
		every = time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	// Reset only ever runs on a stopped or drained timer: Send arms it
	// once, and only this loop disarms it, after the timer fired.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-c.kick:
			timer.Reset(flushDelay)
			continue
		case <-timer.C:
			c.mu.Lock()
			c.armed = false
			c.mu.Unlock()
			c.flush(nil)
			continue
		case <-t.C:
		}
		c.mu.Lock()
		if c.dead {
			c.mu.Unlock()
			return
		}
		c.hbOrd++
		hb := ipc.Message{Op: ipc.OpHeartbeat, PID: c.pid, Arg1: c.hbOrd}
		c.mu.Unlock()
		c.flush(&hb)
	}
}

// recvLoop drains one connection generation. When the transport dies it
// hands off to reconnect — unless a newer generation already took over or
// the session is done.
func (c *Client) recvLoop(nc net.Conn, dec *ipc.FrameDecoder, gen uint64) {
	defer c.wg.Done()
	var buf [16]ipc.Message
	for {
		n, ok, _ := dec.Decode(buf[:])
		for i := 0; i < n; i++ {
			c.handle(buf[i])
		}
		if !ok {
			break
		}
	}
	c.reconnect(nc, gen)
}

// handle processes one daemon frame.
func (c *Client) handle(m ipc.Message) {
	switch m.Op {
	case ipc.OpHeartbeatAck, ipc.OpAck:
		c.trim(m.Seq)
	case ipc.OpGateResult:
		c.trim(m.Seq)
		c.mu.Lock()
		if c.gateCh != nil && m.Arg3 == c.gateOrd {
			ch := c.gateCh
			c.gateCh = nil
			var verdict error
			if m.Arg1 == GateKilled {
				reason := ReasonText(m.Arg2)
				c.killed, c.killRsn = true, reason
				verdict = errors.New(reason)
			}
			c.mu.Unlock()
			ch <- verdict
			return
		}
		c.mu.Unlock()
	case ipc.OpKillNotice:
		reason := ReasonText(m.Arg1)
		c.mu.Lock()
		c.killed, c.killRsn = true, reason
		c.mu.Unlock()
		c.die(reason)
	}
}

// trim advances the ack high-water and the ring head past acked frames,
// waking Send waiters blocked on a full ring.
func (c *Client) trim(ack uint64) {
	if ack == 0 {
		return
	}
	c.mu.Lock()
	if ack > c.acked {
		c.acked = ack
		c.dropAcked()
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// dropAcked advances the ring head past every frame the daemon has acked.
// An acked frame never needs writing (the daemon drops it as overlap), so
// sent never trails head. Called with mu held.
func (c *Client) dropAcked() {
	for c.head < c.tail && c.seqs[c.head%c.slots] <= c.acked {
		c.head++
	}
	c.sent = max(c.sent, c.head)
}

// reconnect re-establishes the session after generation gen's transport
// died: bounded attempts, full-jitter backoff, cancellable at every sleep.
// On welcome it replays every frame past the daemon's ack (CheckSeq stays
// gap-free) and retransmits a pending gate request, holding wmu from
// installing the connection until the replay is written so no concurrent
// flush can overtake it. A rejection (stale session — the lease beat us to
// it) or an exhausted budget kills the client side terminally.
func (c *Client) reconnect(nc net.Conn, gen uint64) {
	c.mu.Lock()
	if c.dead || c.gen != gen {
		c.mu.Unlock()
		return // session over, or a resume already replaced this transport
	}
	c.conn = nil
	c.mu.Unlock()
	nc.Close()

	resume := ipc.Message{Op: ipc.OpResume, PID: c.pid, Arg1: c.token, Arg2: c.cfg.Tenant}
	for attempt := 1; attempt <= c.cfg.ResumeAttempts; attempt++ {
		select {
		case <-c.ctx.Done():
			c.die("hqnet: client closed")
			return
		case <-time.After(resumeBackoff(attempt)):
		}
		nc2, dec2, welcome, err := c.handshake(resume)
		if err != nil {
			var rej *RejectedError
			if errors.As(err, &rej) {
				c.die(err.Error())
				return
			}
			continue // transient: next rung of the ladder
		}
		c.wmu.Lock()
		c.mu.Lock()
		if c.dead {
			c.mu.Unlock()
			c.wmu.Unlock()
			nc2.Close()
			return
		}
		c.gen++
		gen2 := c.gen
		c.conn = nc2
		c.acked = max(c.acked, welcome.Seq)
		c.dropAcked()
		lo, hi := c.head, c.tail
		c.sent, c.pinned = hi, lo
		c.resumes++
		var gateReq *ipc.Message
		if c.gateCh != nil {
			gateReq = &ipc.Message{Op: ipc.OpGateEnter, PID: c.pid, Arg1: uint64(c.gateSys), Arg2: c.gateOrd}
		}
		c.mu.Unlock()
		c.wg.Add(1)
		go c.recvLoop(nc2, dec2, gen2)
		c.writeFrames(nc2, lo, hi, gateReq)
		c.unpin()
		c.wmu.Unlock()
		return
	}
	c.die("hqnet: resume attempts exhausted")
}

var (
	_ ipc.Sender = (*Client)(nil)
	_ vm.Gate    = (*Client)(nil)
)
