package vm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"herqules/internal/compiler"
	"herqules/internal/ripe"
	"herqules/internal/sim"
	"herqules/internal/supervisor"
	"herqules/internal/vm"
	"herqules/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/equivalence.golden.json from the current VM")

const goldenFile = "testdata/equivalence.golden.json"

// ripeSampleStride picks every n-th attack of the RIPE suite for the
// equivalence sample: every origin and attack kind is represented.
const ripeSampleStride = 10

// goldenRun is everything a program run computes that an interpreter change
// must not alter: what it printed, how it ended, and every execution counter.
type goldenRun struct {
	Name          string   `json:"name"`
	Output        []uint64 `json:"output"`
	ExitCode      uint64   `json:"exit_code"`
	Err           string   `json:"err,omitempty"`
	Killed        bool     `json:"killed,omitempty"`
	Hijacked      bool     `json:"hijacked,omitempty"`
	ExploitMarker bool     `json:"exploit_marker,omitempty"`
	Stats         vm.Stats `json:"stats"`
}

func runGolden(t *testing.T, sys *supervisor.System, name string, ins *compiler.Instrumented) goldenRun {
	t.Helper()
	proc, err := sys.Launch(ins, supervisor.LaunchOptions{Inline: true, Cost: sim.Default(), Seed: 7})
	if err != nil {
		t.Fatalf("%s: launch: %v", name, err)
	}
	out, err := proc.Wait()
	if err != nil {
		t.Fatalf("%s: wait: %v", name, err)
	}
	g := goldenRun{
		Name:          name,
		Output:        out.Output,
		ExitCode:      out.ExitCode,
		Killed:        out.Killed,
		Hijacked:      out.Hijacked,
		ExploitMarker: out.ExploitMarker,
		Stats:         out.Stats,
	}
	if out.Err != nil {
		g.Err = out.Err.Error()
	}
	return g
}

// collectGolden runs every workload profile at test scale under Baseline and
// HQ-CFI-SfeStk, and a fixed sample of RIPE attacks under every design, each
// as an inline-delivery process of one System per design (deterministic).
func collectGolden(t *testing.T) []goldenRun {
	var runs []goldenRun
	for _, d := range []compiler.Design{compiler.Baseline, compiler.HQSfeStk} {
		sys := supervisor.New(supervisor.Config{KillOnViolation: true})
		for _, p := range workload.All() {
			opts := compiler.DefaultOptions()
			opts.Allowlist = p.Allowlist()
			ins, err := compiler.Instrument(p.Build(workload.ScaleTest), d, opts)
			if err != nil {
				t.Fatalf("instrument %s under %v: %v", p, d, err)
			}
			runs = append(runs, runGolden(t, sys, fmt.Sprintf("%s/%v", p, d), ins))
		}
		sys.Shutdown(context.Background())
	}
	suite := ripe.Suite()
	for _, d := range compiler.AllDesigns() {
		sys := supervisor.New(supervisor.Config{KillOnViolation: true})
		for i := 0; i < len(suite); i += ripeSampleStride {
			a := suite[i]
			ins, err := compiler.Instrument(a.Build(), d, compiler.DefaultOptions())
			if err != nil {
				t.Fatalf("instrument %s under %v: %v", a.Name(), d, err)
			}
			runs = append(runs, runGolden(t, sys, fmt.Sprintf("ripe/%s/%v", a.Name(), d), ins))
		}
		sys.Shutdown(context.Background())
	}
	return runs
}

func encodeGolden(runs []goldenRun) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, r := range runs {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		if i < len(runs)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return buf.Bytes(), nil
}

// TestVMEquivalenceGolden pins the VM's observable behaviour: every program
// must produce exactly the output, exit state and execution counters recorded
// in the golden file. Regenerate it only for an intended semantic change:
//
//	go test ./internal/vm -run TestVMEquivalenceGolden -update
func TestVMEquivalenceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload profile and a RIPE sample")
	}
	got := collectGolden(t)
	if *updateGolden {
		b, err := encodeGolden(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden file has %d", len(got), len(want))
	}
	for i := range want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) {
			t.Errorf("run %d diverged:\n got  %s\n want %s", i, g, w)
		}
	}
}
