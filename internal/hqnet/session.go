package hqnet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/supervisor"
)

// session is one admitted remote process. It outlives any single connection:
// a severed transport leaves the session intact (awaiting resume) and only
// the lease — or a clean goodbye — ends it. Session end is the single
// teardown path: queue closed, pump drained, forensics frozen, kernel
// context exited, quota released.
type session struct {
	srv    *Server
	token  uint64
	tenant uint64
	pid    int32
	remote *supervisor.Remote
	queue  *sessionQueue
	fin    chan struct{}

	// lastRecv is the lease clock: UnixNano of the last frame received on
	// any of the session's connections. Written by the reader, read by the
	// lease scanner.
	lastRecv atomic.Int64

	// feed serializes hand-offs to the queue (see forward).
	feed sync.Mutex

	mu      sync.Mutex
	conn    net.Conn         // live transport; nil while severed
	fw      *ipc.FrameWriter // writer over conn; nil while severed
	fwd     uint64           // highest data Seq forwarded to the verifier
	resumes uint64
	ended   bool

	// Gate replay state: the client may retransmit a gate request after a
	// resume, and the daemon must neither run the gate twice nor lose a
	// verdict computed while the transport was down.
	gateOrd     uint64
	gateRunning bool
	gateDone    bool
	gateRes     ipc.Message
}

func (s *session) done() <-chan struct{} { return s.fin }

// touch renews the lease clock.
func (s *session) touch() { s.lastRecv.Store(time.Now().UnixNano()) }

// ackSeq reports the cumulative ack: every data frame with Seq <= ackSeq has
// been forwarded to the verifier, so the client may drop it from its replay
// buffer.
func (s *session) ackSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fwd
}

// attach installs a (new) transport, closing any previous one.
func (s *session) attach(c net.Conn, fw *ipc.FrameWriter) {
	s.mu.Lock()
	old := s.conn
	s.conn, s.fw = c, fw
	s.mu.Unlock()
	if old != nil && old != c {
		old.Close()
	}
}

// sever detaches and closes connection c (if it is still the session's live
// transport). The session itself survives: the client may resume within the
// lease, and the lease kills the process otherwise — fail closed either way.
func (s *session) sever(c net.Conn) {
	s.mu.Lock()
	mine := s.conn == c
	if mine {
		s.conn, s.fw = nil, nil
	}
	s.mu.Unlock()
	c.Close()
	if mine {
		count(s.srv.severed)
	}
}

// write sends one frame over the live transport, silently dropping it while
// severed — every frame the daemon emits (acks, gate verdicts) is either
// re-derivable after resume or guarded by retransmission.
func (s *session) write(m ipc.Message) {
	s.mu.Lock()
	fw := s.fw
	s.mu.Unlock()
	if fw != nil {
		_ = fw.WriteMessage(m)
	}
}

// readBurst is how many frames the session reader decodes per read, and so
// the most data frames one queue hand-off carries.
const readBurst = 256

// readLoop drains one connection until it dies or the session ends. All
// three stream endings — clean EOF, truncation mid-frame, undecodable
// garbage — are connection deaths, not process deaths: unlike the local fd
// channels (where truncation is a terminal integrity violation) the network
// plane has a resume protocol, so the partial frame is discarded and the
// client retransmits it from the replay buffer. The process only dies if no
// resume arrives within the lease, and then attributably so.
func (s *session) readLoop(c net.Conn, dec *ipc.FrameDecoder) {
	var buf [readBurst]ipc.Message
	for {
		n, ok, _ := dec.Decode(buf[:])
		if n > 0 {
			s.touch()
		}
		cont, forwarded := s.handleBurst(buf[:n])
		if forwarded {
			// Cumulative ack per burst: lets the client trim its replay
			// buffer without waiting for the next heartbeat ack.
			s.write(ipc.Message{Op: ipc.OpAck, PID: s.pid, Seq: s.ackSeq()})
		}
		if !cont || !ok {
			s.sever(c)
			return
		}
	}
}

// handleBurst processes one decoded burst in wire order. Data frames of this
// session collect, compacted in place, into one pending batch that reaches
// the verifier pump in a single hand-off — before any control frame and at
// the end of the burst, so gates and goodbyes still follow every data frame
// sent ahead of them. cont=false severs the connection (protocol violation
// or session end); forwarded reports whether any data frame was handed on.
func (s *session) handleBurst(ms []ipc.Message) (cont, forwarded bool) {
	pending := ms[:0]
	for _, m := range ms {
		// The session is the authenticity boundary: a data frame claiming
		// another process's identity is not data of this session (it falls
		// to handleControl, which severs) — otherwise a compromised client
		// could splice violations into a bystander's stream (or burn the
		// bystander with a counter gap).
		if !m.Op.IsSessionOp() && m.PID == s.pid {
			pending = append(pending, m) // never overtakes the range cursor
			continue
		}
		ok, fwd := s.forward(pending)
		forwarded = forwarded || fwd
		if !ok || !s.handleControl(m) {
			return false, forwarded
		}
		pending = ms[:0]
	}
	ok, fwd := s.forward(pending)
	return ok, forwarded || fwd
}

// handleControl processes one frame that is not a data frame of this
// session; false severs the connection.
func (s *session) handleControl(m ipc.Message) bool {
	switch m.Op {
	case ipc.OpHeartbeat:
		s.write(ipc.Message{Op: ipc.OpHeartbeatAck, PID: s.pid, Seq: s.ackSeq()})
		return true
	case ipc.OpGateEnter:
		s.gate(m.Arg1, m.Arg2)
		return true
	case ipc.OpGoodbye:
		s.end()
		return false
	}
	// A duplicate HELLO (or any daemon-side op arriving from a client), or a
	// data frame with a forged PID, is a protocol violation: sever and let
	// the lease sort the process out. No state changes on a violating frame.
	return false
}

// forward runs the resume-overlap check on each data frame of a batch and
// hands the survivors to the verifier pump in one queue hand-off. The feed
// lock spans check and hand-off, so the readers of a dying connection and
// of its resumption never interleave or reorder their batches. ok=false
// means the queue closed: the session ended under us.
func (s *session) forward(batch []ipc.Message) (ok, forwarded bool) {
	s.feed.Lock()
	defer s.feed.Unlock()
	s.mu.Lock()
	keep := batch[:0]
	for _, m := range batch {
		if m.Seq != 0 && m.Seq <= s.fwd {
			// Resume retransmission overlap: already forwarded, drop
			// silently. Genuine gaps (Seq jumping past fwd+1) are forwarded
			// as-is — the verifier's CheckSeq owns that judgment, and a
			// client that loses messages *inside* its own stream must die
			// by counter, not be repaired by the transport.
			continue
		}
		s.fwd = max(s.fwd, m.Seq)
		keep = append(keep, m)
	}
	s.mu.Unlock()
	if len(keep) == 0 {
		return true, false
	}
	ok = s.queue.SendBatch(keep) == nil
	return ok, ok
}

// gate runs bounded asynchronous validation for one remote system call.
// Idempotent per ordinal: a request retransmitted after a resume neither
// re-runs a gate in flight nor loses a verdict computed while severed.
func (s *session) gate(sysNo, ord uint64) {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	if ord == s.gateOrd && s.gateRunning {
		s.mu.Unlock()
		return // in flight; verdict will be written when it lands
	}
	if ord == s.gateOrd && s.gateDone {
		res := s.gateRes
		s.mu.Unlock()
		s.write(res) // replay the stored verdict
		return
	}
	s.gateOrd, s.gateRunning, s.gateDone = ord, true, false
	s.mu.Unlock()

	s.srv.wg.Add(1)
	go func() {
		defer s.srv.wg.Done()
		err := s.srv.sys.Kernel().SyscallEnter(s.pid, int(sysNo))
		res := ipc.Message{Op: ipc.OpGateResult, PID: s.pid, Arg1: GatePass, Arg3: ord}
		if err != nil {
			res.Arg1 = GateKilled
			res.Arg2 = reasonCode(err.Error())
		}
		res.Seq = s.ackSeq()
		s.mu.Lock()
		s.gateRunning, s.gateDone, s.gateRes = false, true, res
		s.mu.Unlock()
		s.write(res)
	}()
}

// end finalizes the session exactly once: best-effort kill notice, transport
// closed, queue closed (pump drains what was forwarded), remote finalized
// (freezes the attribution row and forensic report, exits the kernel
// context), quota released. Idempotent; late callers return immediately.
func (s *session) end() {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	conn, fw := s.conn, s.fw
	s.conn, s.fw = nil, nil
	s.mu.Unlock()

	if conn != nil {
		if killed, reason := s.srv.sys.Kernel().Killed(s.pid); killed && fw != nil {
			_ = fw.WriteMessage(ipc.Message{Op: ipc.OpKillNotice, PID: s.pid, Arg1: reasonCode(reason)})
		}
		conn.Close()
	}
	s.queue.Close()
	s.remote.Close()
	s.srv.removeSession(s)
	close(s.fin)
}
