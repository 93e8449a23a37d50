package vm_test

import (
	"runtime"
	"testing"

	"herqules/internal/compiler"
	"herqules/internal/mir"
	"herqules/internal/vm"
	"herqules/internal/workload"
)

func instrumentProfile(tb testing.TB, p *workload.Profile, d compiler.Design, scale workload.Scale) *compiler.Instrumented {
	tb.Helper()
	opts := compiler.DefaultOptions()
	opts.Allowlist = p.Allowlist()
	ins, err := compiler.Instrument(p.Build(scale), d, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return ins
}

func countInstrs(mod *mir.Module) int {
	n := 0
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// TestNewProcessAllocBytes bounds what loading a program allocates: pages
// are demand-zero, so loading the largest profile must not pay for the
// heap, stack and safe-region pages it has not touched yet.
func TestNewProcessAllocBytes(t *testing.T) {
	var largest *compiler.Instrumented
	for _, p := range workload.All() {
		ins := instrumentProfile(t, p, compiler.HQSfeStk, workload.ScaleRef)
		if largest == nil || countInstrs(ins.Mod) > countInstrs(largest.Mod) {
			largest = ins
		}
	}
	cfg := largest.VMConfig()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := vm.NewProcess(largest.Mod, cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perLoad := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("NewProcess(%s, %d instructions) allocates %d bytes", largest.Mod.Name, countInstrs(largest.Mod), perLoad)
	if perLoad >= 1<<20 {
		t.Errorf("NewProcess allocates %d bytes, want < 1 MiB", perLoad)
	}
}

// BenchmarkVMRun loads and runs one whole program at the reference scale,
// unmonitored (messages are counted but not delivered), so it measures the
// VM alone.
func BenchmarkVMRun(b *testing.B) {
	p := workload.ByName("perlbench")
	for _, d := range []compiler.Design{compiler.Baseline, compiler.HQSfeStk} {
		ins := instrumentProfile(b, p, d, workload.ScaleRef)
		cfg := ins.VMConfig()
		b.Run(d.String(), func(b *testing.B) {
			b.ReportAllocs()
			var instrs uint64
			for i := 0; i < b.N; i++ {
				proc, err := vm.NewProcess(ins.Mod, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res := proc.Run("main")
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				instrs += res.Stats.Instructions
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}
