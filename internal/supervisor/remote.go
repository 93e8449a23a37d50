package supervisor

import (
	"sync"
	"time"

	"herqules/internal/dsched"
	"herqules/internal/ipc"
)

// This file is the supervisor's remote-admission surface: the networked
// attestation plane (internal/hqnet) admits processes that run on the other
// end of a connection rather than as local VMs, and they must be first-class
// citizens of the resident System — counted by Shutdown, visible in
// ProcStats/Health/metrics, retained in forensics — or the daemon's
// observability would silently exclude exactly the processes it exists to
// serve.

// Remote is the handle for a process admitted into the System over a
// transport the supervisor does not own (a network session). The admitting
// plane owns the message source's lifecycle: it must close the source (so
// the pump can drain it) and then call Close to finalize the process.
type Remote struct {
	sys     *System
	pid     int32
	key     ipc.MacKey
	hasKey  bool
	drained <-chan struct{}
	rec     *procRecord
	once    sync.Once
	closed  chan struct{}
}

// PID is the kernel process identity assigned at admission.
func (r *Remote) PID() int32 { return r.pid }

// Key returns the MAC key the kernel programmed for this process at
// registration, when the System runs an authenticated policy set. The
// networked plane delivers it to the client over the session during the
// handshake — modeling the trusted kernel→process key provisioning path the
// local plane performs in-memory — so ipc.SealSender on the far side seals
// under the key the verifier's hmac policy will check.
func (r *Remote) Key() (ipc.MacKey, bool) { return r.key, r.hasKey }

// Drained closes once the pump has delivered every message from this
// process's source (which requires the admitting plane to close the source
// first).
func (r *Remote) Drained() <-chan struct{} { return r.drained }

// Done closes once Close has finalized the process.
func (r *Remote) Done() <-chan struct{} { return r.closed }

// Admit registers a remote process: a kernel context is created, recv is
// attached to the shared pump, and the process joins the System's accounting
// exactly as a launched one would. The caller must eventually close recv's
// sending side and call Close, on every path — an admitted Remote holds a
// Shutdown in-flight slot until then.
func (s *System) Admit(recv ipc.Receiver) (*Remote, error) {
	// Admission: same lock discipline as Launch — the inflight count is
	// raised under the lock Shutdown takes to flip down, so no admission
	// slips past a closing system.
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	s.inflight.Add(1)
	s.launched++
	s.mu.Unlock()
	dsched.Yield(dsched.PointLaunchAdmitted, 0)

	admitFailed := func(err error) (*Remote, error) {
		s.mu.Lock()
		s.launched--
		s.mu.Unlock()
		s.inflight.Done()
		return nil, err
	}

	pid := s.k.Register()
	drained, err := s.pumps.Attach(recv)
	if err != nil {
		// Shutdown won the race after admission; unwind the context.
		s.k.Exit(pid)
		return admitFailed(ErrShutdown)
	}

	r := &Remote{
		sys:     s,
		pid:     pid,
		drained: drained,
		closed:  make(chan struct{}),
		rec:     &procRecord{pid: pid, started: time.Now().UnixNano()},
	}
	if s.keys != nil {
		if key, ok := s.keys.Key(pid); ok {
			r.key, r.hasKey = key, true
		}
	}
	if pp, ok := recv.(ipc.PeakPender); ok {
		r.rec.peak.Store(&peakSource{pp})
	}
	s.mu.Lock()
	s.records[pid] = r.rec
	s.mu.Unlock()
	return r, nil
}

// Close finalizes a remote process: it waits for the pump to deliver every
// message from the source (the caller must already have closed the source's
// sending side), folds in any kill, freezes the per-PID attribution row and
// kill postmortem while the verifier context is still alive, tears down the
// kernel context, and releases the admission slot. Idempotent; concurrent
// calls all return after the first completes.
func (r *Remote) Close() {
	r.once.Do(r.finalize)
	<-r.closed
}

func (r *Remote) finalize() {
	s := r.sys
	defer s.inflight.Done()
	<-r.drained

	killed, reason := s.k.Killed(r.pid)
	final := s.freeze(r.rec)
	if final.State != stateKilled {
		if killed {
			final.State, final.KillReason = stateKilled, reason
		} else {
			final.State = stateExited
		}
	}
	final.FinishedUnixNanos = time.Now().UnixNano()

	// Retain the kill postmortem (if one was frozen) before Exit tears the
	// verifier context — and the report hanging off it — down.
	var forensic *ForensicReport
	if fr, ok := s.forensicsLive(r.pid, r.rec.started); ok {
		fr.State = final.State
		fr.FinishedUnixNanos = final.FinishedUnixNanos
		forensic = &fr
	}

	dsched.Yield(dsched.PointProcFinished, r.pid)
	s.k.Exit(r.pid)

	s.mu.Lock()
	s.finished++
	if killed {
		s.killed++
	}
	r.rec.final = &final
	r.rec.forensic = forensic
	s.doneFIFO = append(s.doneFIFO, r.pid)
	for len(s.doneFIFO) > maxProcRecords {
		delete(s.records, s.doneFIFO[0])
		s.doneFIFO = s.doneFIFO[1:]
	}
	s.mu.Unlock()
	close(r.closed)
}
