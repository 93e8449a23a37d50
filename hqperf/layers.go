package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"herqules/internal/ipc"
	"herqules/internal/policy"
	"herqules/internal/telemetry"
	"herqules/internal/verifier"
)

// The traced run (--trace 1) is the per-layer ledger. It always covers all
// three workloads, because the layers are spread across them: the ring and
// the policy chain show on local-stream, the wire on wire-tcp, the compiler
// and the VM on program-suite. The selected workload gets the longest traced
// phase, an untraced phase of the same length for trace.overhead_frac, and
// supplies the metrics every workload has (kernel, verifier pump, runtime,
// self times); each other workload gets a shorter traced phase for the
// metrics only it exercises. Then come the telemetry ablation of
// local-stream and the isolated verifier, policy and hmac replays of the
// recorded local-stream input.

// layerSnap is what a traced phase leaves behind for the workload-scoped
// metrics.
type layerSnap struct {
	snap   telemetry.Snapshot // registry diff over the phase
	msgs   float64            // messages validated in the phase, warm-up included
	allocB uint64             // bytes allocated during the phase
	gcs    uint32             // GC cycles during the phase
	rate   float64            // msgs_per_s of the phase
}

type memMark struct {
	alloc uint64
	gc    uint32
}

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{alloc: ms.TotalAlloc, gc: ms.NumGC}
}

// newLayerSnap pairs a phase's registry diff with the runtime's figures over
// the same interval.
func newLayerSnap(diff telemetry.Snapshot, mem0, mem1 memMark, rate float64) layerSnap {
	return layerSnap{
		snap:   diff,
		msgs:   float64(diff.Counters["verifier.messages"].Total),
		allocB: mem1.alloc - mem0.alloc,
		gcs:    mem1.gc - mem0.gc,
		rate:   rate,
	}
}

// tracedStream runs one traced phase of local-stream or wire-tcp and sets
// that workload's home metrics.
func tracedStream(o *options, wire bool, tr *tracer, r *report, measure time.Duration) (layerSnap, error) {
	cfg := deployedStream(wire, o)
	cfg.counting = wire
	setupRec := tr.recorder()
	env, err := setupStream(cfg, setupRec)
	if err != nil {
		return layerSnap{}, err
	}
	recs := make([]*recorder, len(env.procs))
	for i := range recs {
		recs[i] = tr.recorder()
	}
	var w0, r0 []uint64
	for _, p := range env.procs {
		if p.counts != nil {
			w0 = append(w0, p.counts.writes.Load())
			r0 = append(r0, p.counts.readBytes.Load())
		}
	}
	sent0 := env.sent()

	// Sample the daemon's per-session queue depth while the phase runs.
	var queuePeak int
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if env.srv != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(2 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				for _, c := range env.srv.Conns() {
					if c.QueueDepth > queuePeak {
						queuePeak = c.QueueDepth
					}
				}
			}
		}()
	}
	before := env.m.Snapshot()
	mem0 := readMem()
	ph := env.runPhase(o.warmup, measure, recs)
	mem1 := readMem()
	diff := env.m.Snapshot().Diff(before)
	close(stop)
	wg.Wait()
	sentDelta := float64(env.sent() - sent0)
	var writes, frames float64
	for i, p := range env.procs {
		if p.counts != nil {
			writes += float64(p.counts.writes.Load() - w0[i])
			frames += float64(p.counts.readBytes.Load()-r0[i]) / ipc.MessageSize
		}
	}

	canaryErr := env.canary()
	drainMs, flushMs := env.teardown(setupRec)
	env.verify(r, canaryErr, true)
	for _, err := range ph.errs {
		r.op(err)
	}
	r.attempted += len(ph.samples)

	sendSpan := "ipc.send_burst"
	if wire {
		sendSpan = "hqnet.send_burst"
	}
	bursts := tr.spanDurations(sendSpan)
	var burstNs float64
	for _, d := range bursts {
		burstNs += d
	}
	perMsg := burstNs / float64(len(bursts)*(gatePeriod+1))
	if wire {
		r.set("hqnet.send_ns_per_msg", perMsg, "ns", fmt.Sprintf("%d bursts of %d sealed sends", len(bursts), gatePeriod+1))
		r.set("hqnet.writes_per_msg", writes/sentDelta, "count", fmt.Sprintf("%.0f client writes / %.0f data frames", writes, sentDelta))
		r.set("hqnet.ctrl_frames_per_msg", frames/sentDelta, "count", fmt.Sprintf("%.0f frames read / %.0f data frames", frames, sentDelta))
		r.set("hqnet.flush_ms", median(flushMs), "ms", fmt.Sprintf("median Flush of %d sessions", len(flushMs)))
		r.set("hqnet.server_queue_peak", float64(queuePeak), "count", "peak Server.Conns() queue depth, sampled every 2ms")
		r.set("hqnet.dial_ms", median(env.dialMs), "ms", fmt.Sprintf("median of %d Dial calls", len(env.dialMs)))
		var resumes uint64
		for _, p := range env.procs {
			resumes += p.resumes
		}
		r.set("hqnet.resumes", float64(resumes), "count", fmt.Sprintf("over %d sessions", len(env.procs)))
	} else {
		h := diff.Histograms["ipc.recv_batch_size"]
		r.set("ipc.send_ns_per_msg", perMsg, "ns", fmt.Sprintf("%d bursts of %d ring sends", len(bursts), gatePeriod+1))
		r.set("ipc.recv_batch_mean", h.Mean(), "count", fmt.Sprintf("%d RecvBatch calls", h.Count))
		r.set("verifier.drain_tail_ms", median(drainMs), "ms", fmt.Sprintf("median of %d channel closes", len(drainMs)))
		r.set("supervisor.admit_us", median(env.admitUs), "us", fmt.Sprintf("median of %d Admit calls", len(env.admitUs)))
	}
	return newLayerSnap(diff, mem0, mem1, ph.rate()), nil
}

func (env *streamEnv) sent() uint64 {
	var n uint64
	for _, p := range env.procs {
		n += p.sent
	}
	return n
}

// untracedStream measures msgs_per_s of one untraced phase of a stream
// workload variant.
func untracedStream(cfg streamConfig, warmup, measure time.Duration, r *report) (float64, error) {
	env, err := setupStream(cfg, nil)
	if err != nil {
		return 0, err
	}
	ph := env.runPhase(warmup, measure, nil)
	env.teardown(nil)
	env.verify(r, nil, false)
	for _, err := range ph.errs {
		r.op(err)
	}
	r.attempted += len(ph.samples)
	return ph.rate(), nil
}

// tracedSuite runs program-suite traced and sets its home metrics. When
// untraced > 0 it first runs an untraced phase of that length on the same
// set-up, for trace.overhead_frac.
func tracedSuite(o *options, tr *tracer, r *report, measure, untraced time.Duration) (ls layerSnap, untracedRate float64, err error) {
	sys, m := newSuiteSystem(o)
	defer shutdown(sys)
	s, err := setupSuite(o, sys, tr.recorder())
	if err != nil {
		return ls, 0, err
	}
	r.set("workload.build_ms", s.buildMs, "ms", fmt.Sprintf("Build of %d profiles", len(s.profiles)))
	r.set("compiler.instrument_ms", s.instrumentMs, "ms", fmt.Sprintf("HQ-CFI-SfeStk Instrument of %d profiles", len(s.profiles)))
	r.set("vm.baseline_ms", median(s.baselineMs), "ms", fmt.Sprintf("median Baseline Launch→Wait of %d profiles", len(s.baselineMs)))

	if untraced > 0 {
		runs, measured := s.runSuite(sys, o.seed, o.warmup, untraced, nil)
		untracedRate = suiteRate(r, runs, measured)
	}
	recs := make([]*recorder, suiteRunners)
	for i := range recs {
		recs[i] = tr.recorder()
	}
	heap0, done0 := liveHeapMB(), sys.Stats().Finished
	before := m.Snapshot()
	mem0 := readMem()
	runs, measured := s.runSuite(sys, o.seed+1, o.warmup, measure, recs)
	mem1 := readMem()
	diff := m.Snapshot().Diff(before)
	heap1, done1 := liveHeapMB(), sys.Stats().Finished
	r.set("supervisor.retained_kb_per_program", (heap1-heap0)*1024/float64(done1-done0), "KiB",
		fmt.Sprintf("live-heap growth %.1f MiB over %d finished programs", heap1-heap0, done1-done0))
	rate := suiteRate(r, runs, measured)
	var launch []float64
	for _, run := range runs {
		launch = append(launch, run.launchNs/1e3)
	}
	r.set("supervisor.launch_us", median(launch), "us", fmt.Sprintf("median of %d Launch calls", len(launch)))
	return newLayerSnap(diff, mem0, mem1, rate), untracedRate, nil
}

// suiteRate checks a phase's runs and returns its msgs_per_s.
func suiteRate(r *report, runs []programRun, measuredNs int64) float64 {
	var msgs uint64
	for _, run := range runs {
		if r.op(run.err) && run.doneAt >= 0 {
			msgs += run.msgs
		}
	}
	return float64(msgs) / (float64(measuredNs) / 1e9)
}

// scopedMetrics sets the metrics every workload has, from the selected
// workload's traced phase.
func scopedMetrics(r *report, ls layerSnap, untracedRate float64, w string) {
	c := func(name string) float64 { return float64(ls.snap.Counters[name].Total) }
	sys, stalls := c("kernel.syscalls"), c("kernel.sync_stalls")
	stall := ls.snap.Histograms["kernel.syscall_stall_ns"]
	r.set("kernel.stall_frac", stalls/sys, "frac", fmt.Sprintf("%.0f stalled of %.0f gated syscalls (%s)", stalls, sys, w))
	r.set("kernel.stall_p50_us", stall.Quantile(0.5)/1e3, "us", fmt.Sprintf("n=%d stalls, log2 histogram (%s)", stall.Count, w))
	r.set("kernel.stall_p99_us", stall.Quantile(0.99)/1e3, "us", fmt.Sprintf("n=%d stalls, log2 histogram (%s)", stall.Count, w))
	bs := ls.snap.Histograms["verifier.batch_size"]
	ps := ls.snap.Histograms["verifier.pump_stall_ns"]
	qd := ls.snap.Histograms["verifier.queue_depth"]
	r.set("verifier.batch_mean", bs.Mean(), "count", fmt.Sprintf("%d shard batches (%s)", bs.Count, w))
	r.set("verifier.pump_stall_p50_us", ps.Quantile(0.5)/1e3, "us", fmt.Sprintf("n=%d RecvBatch waits, log2 histogram (%s)", ps.Count, w))
	r.set("verifier.queue_depth_p99", qd.Quantile(0.99), "count", fmt.Sprintf("n=%d enqueues, log2 histogram (%s)", qd.Count, w))
	r.set("runtime.alloc_bytes_per_msg", float64(ls.allocB)/ls.msgs, "B", fmt.Sprintf("%d bytes / %.0f messages (%s)", ls.allocB, ls.msgs, w))
	r.set("runtime.gc_cycles", float64(ls.gcs), "count", fmt.Sprintf("during the traced phase (%s)", w))
	r.set("trace.overhead_frac", 1-ls.rate/untracedRate, "frac",
		fmt.Sprintf("traced %.4g vs untraced %.4g msgs/s (%s)", ls.rate, untracedRate, w))
}

// runTraced is the --trace 1 entry point.
func runTraced(o *options, r *report) error {
	tr := newTracer()
	half := o.measure() / 2
	quarter := o.measure() / 4
	var scoped layerSnap
	var untracedRate float64
	for _, w := range workloads {
		var err error
		switch {
		case w == "program-suite" && w == o.workload:
			scoped, untracedRate, err = tracedSuite(o, tr, r, half, half)
		case w == "program-suite":
			_, _, err = tracedSuite(o, tr, r, quarter, 0)
		case w == o.workload:
			untracedRate, err = untracedStream(deployedStream(w == "wire-tcp", o), o.warmup, half, r)
			if err == nil {
				scoped, err = tracedStream(o, w == "wire-tcp", tr, r, half)
			}
		default:
			_, err = tracedStream(o, w == "wire-tcp", tr, r, quarter)
		}
		if err != nil {
			return fmt.Errorf("traced %s: %w", w, err)
		}
	}
	scopedMetrics(r, scoped, untracedRate, o.workload)
	if err := telemetryAblation(o, r); err != nil {
		return err
	}
	if err := replays(o, tr, r); err != nil {
		return err
	}
	selfTimes(tr, r)
	n, err := tr.write(o.traceOut)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("wrote %d spans to %s\n", n, o.traceOut)
	return nil
}

// telemetryAblation runs local-stream untraced with metrics off and with the
// flight recorder off, interleaved with the deployed configuration, and
// charges the per-message difference to each.
func telemetryAblation(o *options, r *report) error {
	deployed := deployedStream(false, o)
	noMetrics, noFlight := deployed, deployed
	noMetrics.metrics = false
	noFlight.flight = 0
	configs := []streamConfig{deployed, noMetrics, noFlight}
	rates := make([][]float64, len(configs))
	const reps = 2
	phase := o.measure() / 8
	for rep := 0; rep < reps; rep++ {
		for i, cfg := range configs {
			rate, err := untracedStream(cfg, o.warmup/4, phase, r)
			if err != nil {
				return fmt.Errorf("telemetry ablation: %w", err)
			}
			rates[i] = append(rates[i], rate)
		}
	}
	nsPer := func(i int) float64 { return 1e9 / median(rates[i]) }
	base := fmt.Sprintf("%d interleaved %v phases per configuration, local-stream", reps, phase)
	r.set("telemetry.ns_per_msg", nsPer(0)-nsPer(1), "ns", "deployed minus metrics-off; "+base)
	r.set("telemetry.flight_ns_per_msg", nsPer(0)-nsPer(2), "ns", "deployed minus flight-off; "+base)
	return nil
}

// replayPID is the process identity the isolated replays use.
const replayPID = 100

// recordedStream regenerates the first n gate periods of local-stream's
// process 0 — prefill, then the steady mix with an OpSyscall closing every
// period — with the sequence numbers the ring would have assigned. The
// returned split is the index where the prefill ends.
func recordedStream(seed uint64, liveSlots, periods int) (ms []ipc.Message, split int) {
	g := newStreamGen(genConfig{seed: seed, proc: 0, liveSlots: liveSlots})
	ms = append(g.prefill(), ipc.Message{Op: ipc.OpSyscall, Arg1: gateSyscall})
	split = len(ms)
	for p := 0; p < periods; p++ {
		for i := 0; i < gatePeriod; i++ {
			ms = append(ms, g.next())
		}
		ms = append(ms, ipc.Message{Op: ipc.OpSyscall, Arg1: gateSyscall})
	}
	for i := range ms {
		ms[i].PID = replayPID
		ms[i].Seq = uint64(i + 1)
	}
	return ms, split
}

// replayReps is how many fresh instances each isolated replay is timed on;
// the median is reported.
const replayReps = 3

// replays times the verifier, each policy and the hmac sealer in isolation
// on the recorded stream, single-threaded, on fresh instances.
func replays(o *options, tr *tracer, r *report) error {
	rec := tr.recorder()
	ms, split := recordedStream(o.seed, o.liveSlots, 1024)
	steady := ms[split:]
	n := float64(len(steady))
	base := fmt.Sprintf("%d recorded messages, median of %d fresh instances", len(steady), replayReps)

	var deliver []float64
	for rep := 0; rep < replayReps; rep++ {
		v := verifier.NewSharded(func() []policy.Policy { return policy.MustSet(policy.DefaultSet...) }, nil, 0)
		v.CheckSeq = true
		v.EnableFlightRecorder(flightSlots)
		v.EnableTelemetry(telemetry.New(0))
		v.ProcessStarted(replayPID)
		deliverChunks(v, ms[:split])
		sp := rec.begin("verifier.deliver_replay", -1, 0)
		t0 := time.Now()
		deliverChunks(v, steady)
		deliver = append(deliver, float64(time.Since(t0))/n)
		rec.end(sp)
		got := v.Messages(replayPID)
		r.check(got == uint64(len(ms)), "deliver replay validated %d of %d messages", got, len(ms))
		r.check(len(v.Violations(replayPID)) == 0, "deliver replay: %d violations on clean input", len(v.Violations(replayPID)))
	}
	r.set("verifier.deliver_ns_per_msg", median(deliver), "ns", "DeliverBatch in 256-message batches; "+base)

	for _, name := range policy.DefaultSet {
		per, err := handleReplay(name, ms, split, rec, r)
		if err != nil {
			return err
		}
		r.set("policy."+name+".ns_per_msg", per, "ns", "Handle; "+base)
	}
	// The same CFI replay over a live set the size of a large program's,
	// whose table no longer fits the core's L2.
	big, bigSplit := recordedStream(o.seed, largeLiveSet, 1024)
	per, err := handleReplay("cfi", big, bigSplit, rec, r)
	if err != nil {
		return err
	}
	r.set("policy.cfi_l3.ns_per_msg", per, "ns",
		fmt.Sprintf("Handle with a %d-pointer live set; %d recorded messages, median of %d fresh instances", largeLiveSet, len(big)-bigSplit, replayReps))

	kr := policy.NewKeyringSeeded(o.seed)
	kr.Program(replayPID)
	key, _ := kr.Key(replayPID)
	sealed := make([]ipc.Message, len(ms))
	for i, m := range ms {
		m.Mac = ipc.MacSeal(key, m, m.Seq)
		sealed[i] = m
	}
	var unseal []float64
	for rep := 0; rep < replayReps; rep++ {
		h := policy.NewHMAC(kr)
		h.ProcessStarted(replayPID)
		var viol int
		sp := rec.begin("policy.hmac.unseal_replay", -1, 0)
		t0 := time.Now()
		for _, m := range sealed {
			if _, v := h.Unseal(m); v != nil {
				viol++
			}
		}
		unseal = append(unseal, float64(time.Since(t0))/float64(len(sealed)))
		rec.end(sp)
		r.check(viol == 0, "hmac replay: %d authentication failures on sealed input", viol)
	}
	r.set("policy.hmac.ns_per_msg", median(unseal), "ns",
		fmt.Sprintf("Unseal; %d sealed messages, median of %d fresh instances", len(sealed), replayReps))
	return nil
}

// largeLiveSet is the CFI live set of the policy.cfi_l3 replay.
const largeLiveSet = 1 << 16

// handleReplay times one policy's Handle over ms[split:] on fresh instances
// primed with ms[:split], and returns the median ns per message.
func handleReplay(name string, ms []ipc.Message, split int, rec *recorder, r *report) (float64, error) {
	steady := ms[split:]
	var per []float64
	for rep := 0; rep < replayReps; rep++ {
		p, err := policy.New(name)
		if err != nil {
			return 0, err
		}
		p.ProcessStarted(replayPID)
		for _, m := range ms[:split] {
			p.Handle(m)
		}
		var viol int
		sp := rec.begin("policy."+name+".handle_replay", -1, 0)
		t0 := time.Now()
		for _, m := range steady {
			if p.Handle(m) != nil {
				viol++
			}
		}
		per = append(per, float64(time.Since(t0))/float64(len(steady)))
		rec.end(sp)
		r.check(viol == 0, "policy %s replay: %d violations on clean input", name, viol)
	}
	return median(per), nil
}

func deliverChunks(v *verifier.Verifier, ms []ipc.Message) {
	for i := 0; i < len(ms); i += verifier.DefaultBatchSize {
		j := i + verifier.DefaultBatchSize
		if j > len(ms) {
			j = len(ms)
		}
		v.DeliverBatch(ms[i:j])
	}
}

// spanLayers are the layers the traced run records spans for; each gets a
// self-time share even when a run records none of its spans.
var spanLayers = []string{"bench", "compiler", "hqnet", "ipc", "kernel", "policy", "supervisor", "verifier", "vm", "workload"}

// selfTimes reports each layer's share of the traced run's self time.
func selfTimes(tr *tracer, r *report) {
	self := map[string]float64{}
	var total float64
	stats := tr.stats()
	for _, st := range stats {
		self[layerOf(st.name)] += st.selfMs
		total += st.selfMs
	}
	for _, l := range spanLayers {
		r.set("self."+l+"_frac", self[l]/total, "frac", fmt.Sprintf("%.1f of %.1f span-ms", self[l], total))
	}
	for _, st := range stats {
		fmt.Printf("span %-34s n=%-8d total=%10.1fms self=%10.1fms\n", st.name, st.count, st.totalMs, st.selfMs)
	}
}
