// Command hqperf is the HerQules-Go benchmark: one command that runs a
// seeded, closed-loop workload against the deployed configuration, checks
// that every output is correct, and prints every metric by name with its
// unit. The last line of standard output is the result as one JSON object.
//
//	hqperf --workload local-stream --seed 1 --seconds 10 --trace 0
//
// Workloads: local-stream, wire-tcp, program-suite (see README.md).
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// ledger instead and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"herqules/internal/policy"
	"herqules/internal/workload"
)

// options is one invocation's configuration. The command-line flags set
// seed, seconds and trace; tests also shrink the inputs and flip the
// negative-test switches.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string // span file of the traced run

	liveSlots int                 // CFI live set per process
	warmup    time.Duration       // unmeasured lead-in of every phase
	setups    int                 // least set-up repetitions behind setup_s
	setupFor  time.Duration       // keep repeating set-up until this much time is spent
	profiles  []*workload.Profile // program-suite profiles
	scale     workload.Scale

	// Negative-test switches: the correctness gate must flag both.
	killOff bool // KillOnViolation off, so the canary is not killed
	tamper  bool // corrupt one expected program output
}

func defaultOptions() *options {
	return &options{
		liveSlots: 1 << 12,
		warmup:    time.Second,
		setups:    5,
		setupFor:  time.Second,
		profiles:  workload.All(),
		scale:     workload.ScaleRef,
	}
}

func (o *options) measure() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// maxSetups caps the set-up repetitions of one run.
const maxSetups = 50

// moreSetups reports whether a run that has set up done times, spending
// spent, sets up once more: at least o.setups times, and then until
// o.setupFor is spent, so a set-up of a millisecond is not a median of five
// scheduler accidents.
func (o *options) moreSetups(done int, spent time.Duration) bool {
	return done < o.setups || (done < maxSetups && spent < o.setupFor)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics and correctness checks.
type report struct {
	metrics   map[string]metric
	base      map[string]string // sample count or base of each metric, for the text output
	attempted int
	failed    int
	failures  []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, base: map[string]string{}}
}

func (r *report) set(name string, v float64, unit, base string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.base[name] = base
}

// op counts one attempted operation, failed when err is non-nil.
func (r *report) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
		return false
	}
	return true
}

// check counts one correctness check; a failed check counts as a failed
// operation.
func (r *report) check(ok bool, format string, args ...any) bool {
	if ok {
		r.attempted++
		return true
	}
	return r.op(fmt.Errorf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// runWorkload dispatches one invocation.
func runWorkload(o *options) *report {
	r := newReport()
	var err error
	switch {
	case o.trace:
		err = runTraced(o, r)
	case o.workload == "local-stream" || o.workload == "wire-tcp":
		err = runStream(o, o.workload == "wire-tcp", r)
	case o.workload == "program-suite":
		err = runPrograms(o, r)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		r.op(err)
	}
	want := endToEnd
	if o.trace {
		want = perLayer()
	}
	for _, name := range want {
		m, ok := r.metrics[name]
		r.check(ok, "metric %s was not measured", name)
		if ok && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
			r.check(false, "metric %s has no finite value", name)
			delete(r.metrics, name)
		}
	}
	return r
}

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []string{"msgs_per_s", "ops_per_s", "op_p50_us", "op_p90_us", "setup_s", "heap_live_mb"}

// perLayer lists the metrics of a traced run.
func perLayer() []string {
	names := []string{
		"ipc.send_ns_per_msg", "ipc.recv_batch_mean",
		"hqnet.send_ns_per_msg", "hqnet.writes_per_msg", "hqnet.ctrl_frames_per_msg",
		"hqnet.flush_ms", "hqnet.server_queue_peak", "hqnet.dial_ms", "hqnet.resumes",
		"kernel.stall_frac", "kernel.stall_p50_us", "kernel.stall_p99_us",
		"verifier.deliver_ns_per_msg", "verifier.batch_mean", "verifier.pump_stall_p50_us",
		"verifier.queue_depth_p99", "verifier.drain_tail_ms",
		"policy.cfi.ns_per_msg", "policy.memsafety.ns_per_msg", "policy.counter.ns_per_msg",
		"policy.dfi.ns_per_msg", "policy.hmac.ns_per_msg", "policy.cfi_l3.ns_per_msg",
		"telemetry.ns_per_msg", "telemetry.flight_ns_per_msg",
		"supervisor.admit_us", "supervisor.launch_us", "supervisor.retained_kb_per_program",
		"compiler.instrument_ms", "workload.build_ms", "vm.baseline_ms",
		"runtime.alloc_bytes_per_msg", "runtime.gc_cycles",
		"trace.overhead_frac",
	}
	for _, l := range spanLayers {
		names = append(names, "self."+l+"_frac")
	}
	return names
}

var workloads = []string{"local-stream", "wire-tcp", "program-suite"}

// environment is the header printed before the metrics, and as JSON on the
// line before the result.
type environment struct {
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Config     map[string]string `json:"config"`
	StreamHash string            `json:"stream_hash"`
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (built outside a git checkout)"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// workloadConfig describes each workload's fixed configuration.
func workloadConfig(o *options) map[string]string {
	common := fmt.Sprintf("checkseq=on kills=on metrics=on flight=%d shards=%d", flightSlots, runtime.GOMAXPROCS(0))
	stream := func(wire bool) string {
		return fmt.Sprintf("policies=%s %s gate_period=%d processes=%d live_set=%d",
			strings.Join(deployedStream(wire, o).policies(), ","), common, gatePeriod, streamProcs, o.liveSlots)
	}
	return map[string]string{
		"local-stream": stream(false) + " transport=shared-ring",
		"wire-tcp":     stream(true) + fmt.Sprintf(" lease=%v transport=tcp-loopback (host loopback, not a real link)", leaseHQD),
		"program-suite": fmt.Sprintf("policies=%s %s design=HQ-CFI-SfeStk profiles=%d scale=%v concurrent=%d transport=shared-ring",
			strings.Join(policy.DefaultSet, ","), common, len(o.profiles), o.scale, suiteRunners),
	}
}

func printMetrics(w io.Writer, r *report) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-34s %16.6g %-6s %s\n", n, m.Value, m.Unit, r.base[n])
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := defaultOptions()
	fs := flag.NewFlagSet("hqperf", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: local-stream, wire-tcp or program-suite")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per phase")
	traceLevel := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if !slices.Contains(workloads, o.workload) || o.seconds <= 0 || (*traceLevel != 0 && *traceLevel != 1) {
		fmt.Fprintf(os.Stderr, "hqperf: need --workload %v, --seconds > 0 and --trace 0|1\n", workloads)
		os.Exit(2)
	}
	o.trace = *traceLevel == 1
	o.traceOut = filepath.Join(".bench_build", "hqperf", fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))

	env := environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: commit(), Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Config:     workloadConfig(o),
		StreamHash: fmt.Sprintf("%016x", hashPrefix(o.seed, streamProcs, o.liveSlots, 1<<20)),
	}
	fmt.Printf("hqperf workload=%s seed=%d seconds=%g trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("env: GOMAXPROCS=%d NumCPU=%d go=%s commit=%s\n", env.GOMAXPROCS, env.NumCPU, env.GoVersion, env.Commit)
	for _, w := range workloads {
		fmt.Printf("config %s: %s\n", w, env.Config[w])
	}
	fmt.Printf("stream hash (prefill + first 2^20 messages per process): %s\n", env.StreamHash)

	r := runWorkload(o)

	if o.trace {
		fmt.Println("metrics (per layer):")
	} else {
		fmt.Println("metrics (end to end):")
	}
	printMetrics(os.Stdout, r)
	for _, f := range r.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("failed_frac %.6g (%d failed of %d attempted operations and checks)\n", failedFrac, r.failed, r.attempted)

	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	envLine, _ := json.Marshal(map[string]any{"env": env}) // strings, ints and a flag value: always encodes
	fmt.Println(string(envLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hqperf: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
