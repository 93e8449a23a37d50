package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"herqules/internal/compiler"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
	"herqules/internal/workload"
)

// The program-suite workload runs the paper's own unit: whole monitored
// programs. Every profile is built, instrumented as HQ-CFI-SfeStk, and
// launched through System.Launch over the default ring, suiteRunners at a
// time, in a seeded order. Each runner launches its next program only after
// the previous one has been waited for (closed loop).

const suiteRunners = 2

// suiteWindow is the window length of program-suite's metrics.
const suiteWindow = 2 * time.Second

// suite is the set-up state of program-suite.
type suite struct {
	profiles   []*workload.Profile
	hq         []*compiler.Instrumented
	want       [][]uint64 // Baseline output of each profile
	expectKill []bool     // profiles with a modelled use-after-free (omnetpp)

	buildMs, instrumentMs float64
	baselineMs            []float64 // Launch→Wait of each Baseline run
}

func newSuiteSystem(o *options) (*supervisor.System, *telemetry.Metrics) {
	m := telemetry.New(0)
	return supervisor.New(supervisor.Config{
		KillOnViolation: !o.killOff,
		CheckSeq:        true,
		Metrics:         m,
		FlightRecorder:  flightSlots,
	}), m
}

// setupSuite builds and instruments every profile and records its Baseline
// output by running the Baseline design through sys.Launch.
func setupSuite(o *options, sys *supervisor.System, rec *recorder) (*suite, error) {
	s := &suite{profiles: o.profiles}
	base := make([]*compiler.Instrumented, len(o.profiles))
	for i, p := range o.profiles {
		sp := rec.begin("workload.build", -1, 0)
		t0 := time.Now()
		mod := p.Build(o.scale)
		s.buildMs += float64(time.Since(t0)) / 1e6
		rec.end(sp)

		opts := compiler.DefaultOptions()
		opts.Allowlist = p.Allowlist()
		sp = rec.begin("compiler.instrument", -1, 0)
		t0 = time.Now()
		hq, err := compiler.Instrument(mod, compiler.HQSfeStk, opts)
		s.instrumentMs += float64(time.Since(t0)) / 1e6
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("instrument %s: %w", p.Name, err)
		}
		b, err := compiler.Instrument(mod, compiler.Baseline, opts)
		if err != nil {
			return nil, fmt.Errorf("instrument %s as Baseline: %w", p.Name, err)
		}
		s.hq = append(s.hq, hq)
		base[i] = b
		s.expectKill = append(s.expectKill, p.UAFBug)
	}
	s.want = make([][]uint64, len(o.profiles))
	for i, b := range base {
		sp := rec.begin("vm.baseline", -1, 0)
		t0 := time.Now()
		proc, err := sys.Launch(b, supervisor.LaunchOptions{})
		if err != nil {
			rec.end(sp)
			return nil, fmt.Errorf("launch %s as Baseline: %w", o.profiles[i].Name, err)
		}
		out, err := proc.Wait()
		s.baselineMs = append(s.baselineMs, float64(time.Since(t0))/1e6)
		rec.end(sp)
		if err != nil || out.Crashed() || out.Killed {
			return nil, fmt.Errorf("Baseline run of %s failed: %v", o.profiles[i].Name, describe(out, err))
		}
		s.want[i] = out.Output
	}
	if o.tamper {
		for i := range s.want {
			if !s.expectKill[i] && len(s.want[i]) > 0 {
				s.want[i][0] ^= 1
				break
			}
		}
	}
	return s, nil
}

func describe(out *supervisor.Outcome, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case out.Crashed():
		return "crashed: " + out.Err.Error()
	case out.Killed:
		return "killed: " + out.KillReason
	}
	return "ok"
}

// launchOrder is the seeded run order: consecutive rounds, each a fresh
// permutation of the suite.
func launchOrder(seed uint64, n, rounds int) []int {
	rng := seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	next := func() uint64 {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	order := make([]int, 0, n*rounds)
	perm := make([]int, n)
	for r := 0; r < rounds; r++ {
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := int(next() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		order = append(order, perm...)
	}
	return order
}

// programRun is one completed program of the measured phase.
type programRun struct {
	launchNs float64 // duration of the Launch call
	totalNs  float64 // Launch→Wait
	doneAt   int64   // completion, ns after the phase start
	msgs     uint64
	err      error
}

// checkRun compares one program's outcome with its Baseline output, or, for
// the use-after-free profiles, requires a cfi-attributed kill.
func (s *suite) checkRun(sys *supervisor.System, i int, out *supervisor.Outcome) error {
	name := s.profiles[i].Name
	if s.expectKill[i] {
		if !out.Killed {
			return fmt.Errorf("%s: the use-after-free canary was not killed (%s)", name, describe(out, nil))
		}
		if fr, ok := sys.Forensics(out.PID); !ok || fr.Policy != "cfi" {
			return fmt.Errorf("%s: kill not attributed to cfi (report %t, policy %q)", name, ok, fr.Policy)
		}
		return nil
	}
	if out.Crashed() || out.Killed || len(out.PolicyViolations) > 0 {
		return fmt.Errorf("%s: %s, %d violations", name, describe(out, nil), len(out.PolicyViolations))
	}
	if !equalOutput(out.Output, s.want[i]) {
		return fmt.Errorf("%s: output %v differs from its Baseline output %v", name, out.Output, s.want[i])
	}
	return nil
}

func equalOutput(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runSuite launches programs in the seeded order for warmup plus measure and
// returns the runs completed inside the measured window.
func (s *suite) runSuite(sys *supervisor.System, seed uint64, warmup, measure time.Duration, recs []*recorder) (runs []programRun, measuredNs int64) {
	// 128 rounds cover far more programs than a phase of up to a minute runs.
	order := launchOrder(seed, len(s.hq), 128)
	var next atomic.Uint64
	pc := &phaseClock{base: time.Now()}
	pc.startNs.Store(1<<63 - 1)
	per := make([][]programRun, suiteRunners)
	var wg sync.WaitGroup
	for w := 0; w < suiteRunners; w++ {
		var rec *recorder
		if recs != nil {
			rec = recs[w]
		}
		wg.Add(1)
		go func(w int, rec *recorder) {
			defer wg.Done()
			for !pc.stop.Load() {
				k := next.Add(1) - 1
				if k >= uint64(len(order)) {
					return
				}
				i := order[k]
				c := rec.begin("bench.program", -1, k)
				t0 := int64(time.Since(pc.base))
				sp := rec.begin("supervisor.launch", c, k)
				proc, err := sys.Launch(s.hq[i], supervisor.LaunchOptions{Seed: seed ^ k})
				rec.end(sp)
				t1 := int64(time.Since(pc.base))
				run := programRun{launchNs: float64(t1 - t0)}
				t2 := t1
				if err == nil {
					sp = rec.begin("vm.run", c, k)
					var out *supervisor.Outcome
					out, err = proc.Wait()
					rec.end(sp)
					t2 = int64(time.Since(pc.base))
					if err == nil {
						run.msgs = out.MessagesProcessed
						err = s.checkRun(sys, i, out)
					}
				}
				rec.end(c)
				run.err = err
				if start := pc.startNs.Load(); t0 >= start {
					run.totalNs = float64(t2 - t0)
					run.doneAt = t2 - start
					per[w] = append(per[w], run)
				} else if err != nil {
					// A failure during warm-up still fails the run.
					run.doneAt = -1
					per[w] = append(per[w], run)
				}
			}
		}(w, rec)
	}
	time.Sleep(warmup)
	pc.startNs.Store(int64(time.Since(pc.base)))
	time.Sleep(measure)
	measuredNs = int64(time.Since(pc.base)) - pc.startNs.Load()
	pc.stop.Store(true)
	wg.Wait()
	for _, rs := range per {
		for _, run := range rs {
			if run.doneAt <= measuredNs || run.err != nil {
				runs = append(runs, run)
			}
		}
	}
	return runs, measuredNs
}

// runPrograms is the untraced program-suite run.
func runPrograms(o *options, r *report) error {
	var setupS []float64
	var spent time.Duration
	var sys *supervisor.System
	var s *suite
	for o.moreSetups(len(setupS), spent) {
		if sys != nil {
			shutdown(sys)
		}
		runtime.GC() // each set-up starts from the same collector state
		t0 := time.Now()
		sys, _ = newSuiteSystem(o)
		var err error
		s, err = setupSuite(o, sys, nil)
		d := time.Since(t0)
		spent += d
		setupS = append(setupS, d.Seconds())
		if err != nil {
			shutdown(sys)
			return err
		}
	}
	heap := liveHeapMB()
	runs, measured := s.runSuite(sys, o.seed, o.warmup, o.measure(), nil)
	summarizeSuite(r, runs, measured)
	shutdown(sys)
	r.set("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups (build, instrument, Baseline outputs)", len(setupS)))
	r.set("heap_live_mb", heap, "MiB", fmt.Sprintf("after set-up and a forced GC; peak RSS of the run %.1f MiB", peakRSSMB()))
	return nil
}

// shutdown stops a suite's System. Every program it launched has been
// waited for and checked, so nothing is left for the drain to lose.
func shutdown(sys *supervisor.System) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = sys.Shutdown(ctx)
}

// summarizeSuite turns the measured runs into the end-to-end metrics. Its
// windows are longer than the stream workloads': a window must hold enough
// programs for a 90th percentile with ten samples beyond it.
func summarizeSuite(r *report, runs []programRun, measuredNs int64) {
	var ss []sample
	for _, run := range runs {
		if r.op(run.err) && run.doneAt >= 0 {
			ss = append(ss, sample{at: run.doneAt, ns: run.totalNs, msgs: float64(run.msgs)})
		}
	}
	setOps(r, windows(ss, measuredNs, int64(suiteWindow)))
}
