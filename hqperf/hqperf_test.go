package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"herqules/internal/workload"
)

// tinyOptions shrinks every input so a whole workload runs in well under a
// second: a small live set, short phases, one set-up, and a program suite of
// three profiles that still contains a use-after-free canary.
func tinyOptions(t *testing.T, w string) *options {
	t.Helper()
	o := defaultOptions()
	o.workload = w
	o.seed = 7
	o.seconds = 0.4
	o.warmup = 50 * time.Millisecond
	o.setups = 2
	o.setupFor = 0
	o.liveSlots = 1 << 8
	o.scale = workload.ScaleTest
	o.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
	o.profiles = nil
	for _, p := range workload.All() {
		switch p.Name {
		case "omnetpp", "mcf", "perlbench":
			o.profiles = append(o.profiles, p)
		}
	}
	if len(o.profiles) != 3 {
		t.Fatalf("expected 3 profiles, got %d", len(o.profiles))
	}
	return o
}

func requireMetrics(t *testing.T, r *report, names []string) {
	t.Helper()
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			t.Errorf("metric %s missing", n)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
			t.Errorf("metric %s = %v %q", n, m.Value, m.Unit)
		}
	}
}

func TestTinyWorkloadsPassTheirChecks(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			r := runWorkload(tinyOptions(t, w))
			if !r.correct() {
				t.Fatalf("%d of %d checks failed: %v", r.failed, r.attempted, r.failures)
			}
			requireMetrics(t, r, endToEnd)
			for _, n := range endToEnd {
				if r.metrics[n].Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, r.metrics[n].Value)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	o := tinyOptions(t, "local-stream")
	o.trace = true
	r := runWorkload(o)
	if !r.correct() {
		t.Fatalf("%d of %d checks failed: %v", r.failed, r.attempted, r.failures)
	}
	requireMetrics(t, r, perLayer())
	if v := r.metrics["hqnet.resumes"].Value; v != 0 {
		t.Errorf("hqnet.resumes = %v on a clean loopback", v)
	}
	b, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var first struct {
		Name  string `json:"name"`
		Cycle uint64 `json:"cycle"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(string(b), "\n", 2)[0]), &first); err != nil || first.Name == "" {
		t.Fatalf("span file does not start with a span: %v", err)
	}
}

// The gate must be able to fail: with kills off the canary's gate passes,
// and that is reported as a failure.
func TestCanaryFailsWithKillsOff(t *testing.T) {
	for _, w := range []string{"local-stream", "wire-tcp"} {
		t.Run(w, func(t *testing.T) {
			o := tinyOptions(t, w)
			o.killOff = true
			r := runWorkload(o)
			if r.correct() {
				t.Fatal("canary passed with kills off, but the run reported correct")
			}
			if !strings.Contains(strings.Join(r.failures, "\n"), "gate passed a check of an undefined pointer") {
				t.Fatalf("failures do not name the canary: %v", r.failures)
			}
		})
	}
	o := tinyOptions(t, "program-suite")
	o.killOff = true
	if r := runWorkload(o); r.correct() || !strings.Contains(strings.Join(r.failures, "\n"), "canary was not killed") {
		t.Fatalf("program-suite with kills off: correct=%t failures=%v", r.correct(), r.failures)
	}
}

func TestTamperedOutputIsFlagged(t *testing.T) {
	o := tinyOptions(t, "program-suite")
	o.tamper = true
	r := runWorkload(o)
	if r.correct() {
		t.Fatal("a tampered Baseline output went unnoticed")
	}
	if !strings.Contains(strings.Join(r.failures, "\n"), "differs from its Baseline output") {
		t.Fatalf("failures do not name the output mismatch: %v", r.failures)
	}
}

func TestInputsDeriveFromSeed(t *testing.T) {
	if hashPrefix(1, 2, 1<<8, 4096) != hashPrefix(1, 2, 1<<8, 4096) {
		t.Fatal("one seed produced two streams")
	}
	if hashPrefix(1, 2, 1<<8, 4096) == hashPrefix(2, 2, 1<<8, 4096) {
		t.Fatal("two seeds produced one stream")
	}
	a, b := launchOrder(3, 48, 2), launchOrder(3, 48, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("one seed produced two launch orders")
		}
	}
	seen := map[int]bool{}
	for _, i := range a[:48] {
		seen[i] = true
	}
	if len(seen) != 48 {
		t.Fatalf("a round launches %d distinct profiles, want 48", len(seen))
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics the
// command reports.
func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(doc.Workloads), sorted(workloads)},
		{"end_to_end", names(doc.EndToEnd), sorted(endToEnd)},
		{"per_layer", names(doc.PerLayer), sorted(perLayer())},
	} {
		if strings.Join(c.got, ",") != strings.Join(c.want, ",") {
			t.Errorf("%s: BENCHMARK.json has %v, the command reports %v", c.what, c.got, c.want)
		}
	}
}
