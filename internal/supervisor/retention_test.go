package supervisor

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"herqules/internal/compiler"
	"herqules/internal/ipc"
	"herqules/internal/telemetry"
	"herqules/internal/workload"
)

// TestConcurrentLaunchesOfOneModule launches one instrumented program twice
// at once. Loading must only read the shared module (its globals included),
// so under -race this is a regression test for the loader once writing each
// global's address back into the module. A scraper reads the per-PID rows
// meanwhile, racing the rows' freeze at finish.
func TestConcurrentLaunchesOfOneModule(t *testing.T) {
	p := workload.ByName("perlbench")
	opts := compiler.DefaultOptions()
	opts.Allowlist = p.Allowlist()
	ins, err := compiler.Instrument(p.Build(workload.ScaleTest), compiler.HQSfeStk, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Mod.Globals) == 0 {
		t.Fatal("test program has no globals to lay out")
	}
	sys := New(Config{KillOnViolation: true, Metrics: telemetry.New(0)})
	defer sys.Shutdown(context.Background())

	start, finished, scraped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		<-start
		for {
			select {
			case <-finished:
				return
			default:
				sys.ProcStats()
				runtime.Gosched()
			}
		}
	}()
	outs := make([]*Outcome, 2)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			proc, err := sys.Launch(ins, LaunchOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if outs[i], err = proc.Wait(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(finished)
	<-scraped
	if t.Failed() {
		return
	}
	for i, out := range outs {
		if out.Crashed() || out.Killed {
			t.Fatalf("launch %d: crashed=%v killed=%q", i, out.Err, out.KillReason)
		}
	}
	if !reflect.DeepEqual(outs[0].Output, outs[1].Output) {
		t.Errorf("concurrent launches disagree: %v vs %v", outs[0].Output, outs[1].Output)
	}
}

// TestFinishedProcessReleasesChannel checks that a finished process's
// retained attribution row does not keep its channel, and so its ring,
// reachable once Wait has returned.
func TestFinishedProcessReleasesChannel(t *testing.T) {
	sys := New(Config{Metrics: telemetry.New(0)})
	defer sys.Shutdown(context.Background())

	ch := ipc.NewSharedRing(DefaultChannelSlots)
	ring := weak.Make(ch.Receiver.(*ipc.SharedRing))
	proc, err := sys.Launch(instrumentHQ(t, victim(t, false)), LaunchOptions{Channel: ch})
	if err != nil {
		t.Fatal(err)
	}
	out, err := proc.Wait()
	if err != nil || out.Crashed() || out.Killed {
		t.Fatalf("clean run failed: %v %+v", err, out)
	}
	runtime.GC()
	runtime.GC()
	if ring.Value() != nil {
		t.Error("a finished process's record still pins its channel's ring")
	}
	rows := sys.ProcStats()
	if len(rows) != 1 || rows[0].State != stateExited || rows[0].Messages == 0 {
		t.Errorf("frozen row = %+v", rows)
	}
}
