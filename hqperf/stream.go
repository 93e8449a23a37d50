package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"herqules/internal/hqnet"
	"herqules/internal/ipc"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
	"herqules/internal/vm"
)

// The two stream workloads drive the verifier from streamProcs, each a
// closed-loop monitored program: it sends a gate period of generated
// messages, an OpSyscall, and then blocks in the syscall gate until the
// verifier has validated everything it sent. A slower verifier therefore
// receives less load; nothing queues without bound.

const (
	streamProcs = 2    // load goroutines (and processes or sessions) per workload
	gatePeriod  = 1024 // messages between syscall gates
	gateSyscall = 1    // the syscall number every gate carries
	leaseHQD    = time.Second
	flightSlots = 256
)

// streamConfig selects one variant of a stream workload's System.
type streamConfig struct {
	wire      bool // wire-tcp: sessions over hqnet on loopback TCP
	metrics   bool // telemetry.Metrics wired through the System
	flight    int  // flight-recorder slots (0 disables)
	kill      bool // KillOnViolation
	liveSlots int  // CFI live-set size per process
	seed      uint64
	counting  bool // wrap client connections with write/read counters
}

func deployedStream(wire bool, o *options) streamConfig {
	return streamConfig{wire: wire, metrics: true, flight: flightSlots, kill: !o.killOff,
		liveSlots: o.liveSlots, seed: o.seed}
}

func (c streamConfig) policies() []string {
	names := append([]string{}, policy.DefaultSet...)
	if c.wire {
		// cmd/hqd's default: the transport is untrusted, so messages are
		// sealed and the hmac policy authenticates them first.
		names = append(names, "hmac")
	}
	return names
}

// connCounts tallies one client's transport calls.
type connCounts struct {
	writes    atomic.Uint64
	readBytes atomic.Uint64
}

type countingConn struct {
	net.Conn
	c *connCounts
}

func (cc countingConn) Write(b []byte) (int, error) {
	cc.c.writes.Add(1)
	return cc.Conn.Write(b)
}

func (cc countingConn) Read(b []byte) (int, error) {
	n, err := cc.Conn.Read(b)
	cc.c.readBytes.Add(uint64(n))
	return n, err
}

// streamProc is one monitored process of a stream workload.
type streamProc struct {
	idx     int
	pid     int32
	gen     *streamGen
	send    ipc.Sender
	gate    vm.Gate
	sent    uint64 // messages handed to send, prefill included
	resumes uint64 // session resumes, recorded at teardown

	sendSpan, gateSpan string

	ch     *ipc.Channel       // local-stream
	remote *supervisor.Remote // local-stream
	client *hqnet.Client      // wire-tcp
	counts *connCounts        // wire-tcp, when counting

	// Per-cycle records of the current phase, written only by the
	// process's own goroutine.
	gateNs   []float64
	doneAt   []int64
	doneMsgs []float64
}

// streamEnv is one set-up instance of a stream workload.
type streamEnv struct {
	cfg   streamConfig
	m     *telemetry.Metrics
	sys   *supervisor.System
	srv   *hqnet.Server
	procs []*streamProc

	admitUs, dialMs []float64
}

// setupStream builds the System (and, for wire-tcp, the daemon), admits or
// dials the processes, and runs each process's prefill through one gate.
func setupStream(cfg streamConfig, rec *recorder) (*streamEnv, error) {
	env := &streamEnv{cfg: cfg}
	factory, err := policy.SetFactory(cfg.policies()...)
	if err != nil {
		return nil, err
	}
	if cfg.metrics {
		env.m = telemetry.New(0)
	}
	env.sys = supervisor.New(supervisor.Config{
		Policies:        factory,
		KillOnViolation: cfg.kill,
		CheckSeq:        true,
		Metrics:         env.m,
		FlightRecorder:  cfg.flight,
	})
	var addr string
	if cfg.wire {
		env.srv = hqnet.NewServer(hqnet.Config{Sys: env.sys, Lease: leaseHQD, Metrics: env.m})
		ln, err := env.srv.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			env.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		addr = ln.Addr().String()
	}
	for i := 0; i < streamProcs; i++ {
		p := &streamProc{idx: i, gen: newStreamGen(genConfig{seed: cfg.seed, proc: i, liveSlots: cfg.liveSlots})}
		if cfg.wire {
			ccfg := hqnet.ClientConfig{Network: "tcp", Addr: addr, Tenant: uint64(i)}
			if cfg.counting {
				p.counts = &connCounts{}
				counts := p.counts
				ccfg.WrapConn = func(nc net.Conn) net.Conn { return countingConn{Conn: nc, c: counts} }
			}
			s := rec.begin("hqnet.dial", -1, 0)
			t0 := time.Now()
			c, err := hqnet.Dial(context.Background(), ccfg)
			env.dialMs = append(env.dialMs, float64(time.Since(t0))/1e6)
			rec.end(s)
			if err != nil {
				env.close()
				return nil, fmt.Errorf("dial session %d: %w", i, err)
			}
			p.client, p.pid, p.send, p.gate = c, c.PID(), c.Sender(), c
			p.sendSpan, p.gateSpan = "hqnet.send_burst", "hqnet.gate"
		} else {
			p.ch = ipc.NewSharedRing(supervisor.DefaultChannelSlots)
			if env.m != nil {
				// What System.Launch does for every channel it binds.
				p.ch.EnableTelemetry(env.m)
			}
			s := rec.begin("supervisor.admit", -1, 0)
			t0 := time.Now()
			r, err := env.sys.Admit(p.ch.Receiver)
			env.admitUs = append(env.admitUs, float64(time.Since(t0))/1e3)
			rec.end(s)
			if err != nil {
				p.ch.Close()
				env.close()
				return nil, fmt.Errorf("admit process %d: %w", i, err)
			}
			p.remote, p.pid, p.send, p.gate = r, r.PID(), p.ch.Sender, env.sys.Kernel()
			p.sendSpan, p.gateSpan = "ipc.send_burst", "kernel.gate"
		}
		env.procs = append(env.procs, p)
	}
	for _, p := range env.procs {
		s := rec.begin("bench.prefill", -1, 0)
		err := p.sendAll(p.gen.prefill())
		if err == nil {
			err = p.sendAll([]ipc.Message{{Op: ipc.OpSyscall, Arg1: gateSyscall}})
		}
		if err == nil {
			err = p.gate.SyscallEnter(p.pid, gateSyscall)
		}
		rec.end(s)
		if err != nil {
			env.close()
			return nil, fmt.Errorf("prefill of process %d: %w", p.idx, err)
		}
	}
	return env, nil
}

func (p *streamProc) sendAll(ms []ipc.Message) error {
	for i := range ms {
		ms[i].PID = p.pid
		if err := p.send.Send(ms[i]); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		p.sent++
	}
	return nil
}

// phaseClock coordinates the load goroutines of one phase: cycles that start
// before measuring begins are warm-up and are not recorded.
type phaseClock struct {
	base    time.Time
	startNs atomic.Int64 // measuring starts at base+startNs; MaxInt64 until set
	stop    atomic.Bool
}

// loop runs closed-loop gate cycles until the phase stops.
func (p *streamProc) loop(pc *phaseClock, rec *recorder) error {
	burst := make([]ipc.Message, gatePeriod+1)
	for cyc := uint64(1); !pc.stop.Load(); cyc++ {
		id := uint64(p.idx+1)<<48 | cyc
		c := rec.begin("bench.cycle", -1, id)
		for i := 0; i < gatePeriod; i++ {
			m := p.gen.next()
			m.PID = p.pid
			burst[i] = m
		}
		burst[gatePeriod] = ipc.Message{Op: ipc.OpSyscall, PID: p.pid, Arg1: gateSyscall}
		s := rec.begin(p.sendSpan, c, id)
		for i := range burst {
			if err := p.send.Send(burst[i]); err != nil {
				return fmt.Errorf("process %d cycle %d: send: %w", p.idx, cyc, err)
			}
		}
		p.sent += uint64(len(burst))
		rec.end(s)
		t1 := int64(time.Since(pc.base))
		g := rec.begin(p.gateSpan, c, id)
		err := p.gate.SyscallEnter(p.pid, gateSyscall)
		rec.end(g)
		t2 := int64(time.Since(pc.base))
		rec.end(c)
		if err != nil {
			return fmt.Errorf("process %d cycle %d: gate: %w", p.idx, cyc, err)
		}
		if start := pc.startNs.Load(); t1 >= start {
			p.gateNs = append(p.gateNs, float64(t2-t1))
			p.doneAt = append(p.doneAt, t2-start)
			p.doneMsgs = append(p.doneMsgs, float64(len(burst)))
		}
	}
	return nil
}

// streamPhase is the outcome of one measured phase.
type streamPhase struct {
	measuredNs int64
	samples    []sample // gate cycles completed inside the measured phase
	errs       []error
}

// streamWindow is the window length of the stream workloads' metrics.
const streamWindow = time.Second

func (ph streamPhase) windows() []window {
	return windows(ph.samples, ph.measuredNs, int64(streamWindow))
}

// rate is the best window's msgs_per_s.
func (ph streamPhase) rate() float64 {
	v, _, _ := best(ph.windows(), true, window.msgRate)
	return v
}

// runPhase runs every process's loop for warmup plus measure.
func (env *streamEnv) runPhase(warmup, measure time.Duration, recs []*recorder) streamPhase {
	pc := &phaseClock{base: time.Now()}
	pc.startNs.Store(1<<63 - 1)
	errs := make([]error, len(env.procs))
	var wg sync.WaitGroup
	for i, p := range env.procs {
		var rec *recorder
		if recs != nil {
			rec = recs[i]
		}
		wg.Add(1)
		go func(i int, p *streamProc, rec *recorder) {
			defer wg.Done()
			errs[i] = p.loop(pc, rec)
		}(i, p, rec)
	}
	time.Sleep(warmup)
	pc.startNs.Store(int64(time.Since(pc.base)))
	time.Sleep(measure)
	measured := int64(time.Since(pc.base)) - pc.startNs.Load()
	pc.stop.Store(true)
	wg.Wait()

	ph := streamPhase{measuredNs: measured}
	for i, p := range env.procs {
		if errs[i] != nil {
			ph.errs = append(ph.errs, errs[i])
		}
		for k, at := range p.doneAt {
			if at <= measured {
				ph.samples = append(ph.samples, sample{at: at, ns: p.gateNs[k], msgs: p.doneMsgs[k]})
			}
		}
		p.gateNs, p.doneAt, p.doneMsgs = nil, nil, nil
	}
	return ph
}

// canary sends a check of a never-defined pointer from process 0 and gates.
// It returns the gate's error, which must be a cfi kill.
func (env *streamEnv) canary() error {
	p := env.procs[0]
	if err := p.sendAll([]ipc.Message{p.gen.canary(), {Op: ipc.OpSyscall, Arg1: gateSyscall}}); err != nil {
		return err
	}
	return p.gate.SyscallEnter(p.pid, gateSyscall)
}

// teardown closes every process and the System, returning how long each
// local process's drain took from channel close until Remote.Close returned
// (local-stream) or how long each client's Flush took (wire-tcp).
func (env *streamEnv) teardown(rec *recorder) (drainMs, flushMs []float64) {
	for _, p := range env.procs {
		switch {
		case p.remote != nil:
			s := rec.begin("verifier.drain_tail", -1, 0)
			t0 := time.Now()
			p.ch.Close()
			p.remote.Close()
			drainMs = append(drainMs, float64(time.Since(t0))/1e6)
			rec.end(s)
			p.remote = nil
		case p.client != nil:
			s := rec.begin("hqnet.flush", -1, 0)
			t0 := time.Now()
			p.client.Flush(leaseHQD)
			flushMs = append(flushMs, float64(time.Since(t0))/1e6)
			rec.end(s)
			p.resumes = p.client.Resumes()
			p.client.Close()
			p.client = nil
		}
	}
	env.close()
	return drainMs, flushMs
}

// close releases whatever setup created; safe on a partial env.
func (env *streamEnv) close() {
	for _, p := range env.procs {
		if p.remote != nil {
			p.ch.Close()
			p.remote.Close()
			p.remote = nil
		}
		if p.client != nil {
			p.client.Close()
			p.client = nil
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A drain that did not finish shows in verify's per-process checks.
	if env.srv != nil {
		_ = env.srv.Shutdown(ctx)
	} else if env.sys != nil {
		_ = env.sys.Shutdown(ctx)
	}
}

// verify checks a torn-down env: every message sent was validated (or, for
// the canary process, dropped after its kill), clean processes show no
// violation and no kill, the canary process was killed by cfi and nothing
// else, and no session resumed.
func (env *streamEnv) verify(r *report, canaryErr error, ranCanary bool) {
	st := env.sys.Stats()
	rows := map[int32]supervisor.ProcStats{}
	for _, row := range st.Procs {
		rows[row.PID] = row
	}
	for _, p := range env.procs {
		row, ok := rows[p.pid]
		if !r.check(ok, "process %d (pid %d) has no attribution row", p.idx, p.pid) {
			continue
		}
		canaryProc := ranCanary && p.idx == 0
		r.check(row.Messages+row.Dropped == p.sent,
			"pid %d: verifier saw %d messages (+%d dropped), sent %d", p.pid, row.Messages, row.Dropped, p.sent)
		if canaryProc {
			r.check(row.State == "killed" && strings.Contains(row.KillReason, "pointer not defined"),
				"canary pid %d: state %q reason %q, want a cfi kill", p.pid, row.State, row.KillReason)
			fr, ok := env.sys.Forensics(p.pid)
			r.check(ok && fr.Policy == "cfi", "canary pid %d: kill not attributed to cfi (report %t, policy %q)", p.pid, ok, fr.Policy)
			r.check(canaryErr != nil, "canary pid %d: gate passed a check of an undefined pointer", p.pid)
			r.check(row.Violations == 1, "canary pid %d: %d violations, want 1", p.pid, row.Violations)
		} else {
			r.check(row.State == "exited" && row.Violations == 0 && row.Dropped == 0,
				"clean pid %d: state %q, %d violations, %d dropped", p.pid, row.State, row.Violations, row.Dropped)
		}
		if env.cfg.wire {
			r.check(p.resumes == 0, "session of pid %d resumed %d times", p.pid, p.resumes)
		}
	}
	want := 0
	if ranCanary {
		want = 1
	}
	var other uint64
	for name, n := range st.ViolationsByPolicy {
		if name != "cfi" {
			other += n
		}
	}
	r.check(st.ViolationsByPolicy["cfi"] == uint64(want) && other == 0,
		"violations by policy %v, want exactly %d cfi", st.ViolationsByPolicy, want)
}

// runStream is the untraced run of local-stream or wire-tcp.
func runStream(o *options, wire bool, r *report) error {
	cfg := deployedStream(wire, o)
	var setupS []float64
	var spent time.Duration
	var env *streamEnv
	for o.moreSetups(len(setupS), spent) {
		if env != nil {
			env.close()
		}
		runtime.GC() // each set-up starts from the same collector state
		t0 := time.Now()
		var err error
		env, err = setupStream(cfg, nil)
		d := time.Since(t0)
		spent += d
		setupS = append(setupS, d.Seconds())
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	heap := liveHeapMB()
	ph := env.runPhase(o.warmup, o.measure(), nil)
	summarizeStream(r, ph)
	canaryErr := env.canary()
	env.teardown(nil)
	env.verify(r, canaryErr, true)
	r.set("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups (System, %d processes, prefill)", len(setupS), streamProcs))
	r.set("heap_live_mb", heap, "MiB", fmt.Sprintf("after set-up and a forced GC; peak RSS of the run %.1f MiB", peakRSSMB()))
	return nil
}

// summarizeStream turns a phase into the end-to-end metrics.
func summarizeStream(r *report, ph streamPhase) {
	for _, err := range ph.errs {
		r.op(err)
	}
	r.attempted += len(ph.samples)
	setOps(r, ph.windows())
}

// setOps sets the throughput and latency metrics, each from its best window:
// the highest rate, the lowest percentile. Reporting the best window rather
// than the whole phase keeps a figure steady when the host, or a collector
// cycle, stalls the benchmark for part of a run; the text output gives the
// median window beside it.
func setOps(r *report, ws []window) {
	set := func(name, unit string, higher bool, f func(window) float64, what func(window) string) {
		v, from, med := best(ws, higher, f)
		r.set(name, v, unit, fmt.Sprintf("best of %d %gs windows, median window %.4g; %s", len(ws), from.sec, med, what(from)))
	}
	set("msgs_per_s", "1/s", true, window.msgRate, func(w window) string { return fmt.Sprintf("%.0f messages", w.msgs) })
	set("ops_per_s", "1/s", true, window.opRate, func(w window) string { return fmt.Sprintf("%d operations", w.ops) })
	n := func(w window) string { return fmt.Sprintf("n=%d", len(w.lat)) }
	set("op_p50_us", "us", false, func(w window) float64 { return quantile(w.lat, 0.5) / 1e3 }, n)
	set("op_p90_us", "us", false, func(w window) float64 { return quantile(w.lat, 0.9) / 1e3 }, n)
}
