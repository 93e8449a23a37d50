// Command hqbench regenerates the paper's tables and figures from this
// reproduction's substrates.
//
// Usage:
//
//	hqbench -exp all            # everything (slow: includes 954x6 RIPE runs)
//	hqbench -exp table2         # IPC primitive send costs
//	hqbench -exp table4         # correctness classification
//	hqbench -exp table5         # RIPE effectiveness
//	hqbench -exp fig3           # IPC primitives under HQ-CFI-SfeStk
//	hqbench -exp fig4           # MODEL vs SIM on the train input
//	hqbench -exp fig5           # CFI design comparison
//	hqbench -exp table6         # lines of code per component
//	hqbench -exp metrics        # §5.4 message/memory statistics
//	hqbench -exp throughput     # verifier drain rate: scalar vs sharded-batch
//	hqbench -exp stats          # component-level telemetry snapshot
//	hqbench -exp multiproc      # supervisor scaling: aggregate rate vs process count
//	hqbench -exp latency        # cost + output of 1-in-N send→validate sampling
//	hqbench -exp obs            # observability endpoint smoke: scrape /metrics over HTTP
//	hqbench -exp chaos          # fault-injection soak: fail-closed invariants + reproducibility
//	hqbench -exp scaling        # shard-scaling ladder: shards x backend msgs/sec
//	hqbench -exp verify         # model-check the gate protocol (exhaustive small-scope)
//	hqbench -exp policies       # policy registry: detection matrix + per-policy overhead
//	hqbench -exp forensics      # flight recorder: kill attribution, overhead, zero-alloc stamp
//	hqbench -exp hqd            # networked attestation plane soak: fail-closed connection lifecycle
//	hqbench -scale test|train|ref (default ref)
//	hqbench -msgs N             # messages per throughput/stats measurement
//	hqbench -procs N            # concurrent monitored processes for stats/chaos
//	hqbench -seed N             # fault-schedule seed for the chaos soak
//	hqbench -quick              # shrink the scaling ladder for smoke runs
//	hqbench -out FILE           # also write the report as JSON (scaling, policies, forensics, hqd)
//
// -out with -exp scaling writes on any run including -exp all (the original
// behaviour); for policies, forensics and hqd it writes only when that
// experiment was selected by name, so `-exp all -out FILE` cannot have
// several experiments clobbering one file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"herqules/internal/experiments"
	"herqules/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table2, table4, table5, fig3, fig4, fig5, table6, metrics, throughput, stats, multiproc, latency, obs, chaos, scaling, verify, policies, forensics, hqd, all")
	scaleFlag := flag.String("scale", "ref", "input scale for performance runs: test, train, ref")
	msgs := flag.Int("msgs", 1<<20, "messages per throughput/stats measurement")
	procs := flag.Int("procs", 8, "concurrent monitored processes for the stats and chaos experiments")
	seed := flag.Uint64("seed", 0xda0517, "fault-schedule seed for the chaos soak")
	quick := flag.Bool("quick", false, "shrink the scaling ladder (fewer messages, single rep) for smoke runs")
	outFile := flag.String("out", "", "also write the report of -exp scaling, policies, forensics or hqd as JSON to this file")
	flag.Parse()

	var scale workload.Scale
	switch *scaleFlag {
	case "test":
		scale = workload.ScaleTest
	case "train":
		scale = workload.ScaleTrain
	case "ref":
		scale = workload.ScaleRef
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("table2") {
		ran = true
		header("Table 2: IPC primitive send costs")
		fmt.Print(experiments.FormatTable2(experiments.Table2(20000)))
	}
	if want("table4") {
		ran = true
		header(fmt.Sprintf("Table 4: correctness of CFI designs (48 benchmarks, %s input)", scale))
		fmt.Print(experiments.FormatTable4(experiments.Table4(scale)))
	}
	if want("table5") {
		ran = true
		header("Table 5: successful RIPE exploits by overflow origin (954 attacks)")
		tabs, err := experiments.Table5()
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.FormatTable5(tabs))
	}
	if want("fig3") {
		ran = true
		header(fmt.Sprintf("Figure 3: HQ-CFI-SfeStk relative performance per IPC primitive (%s input)", scale))
		fmt.Print(experiments.FormatSeries(experiments.Figure3(scale)))
	}
	if want("fig4") {
		ran = true
		header("Figure 4: AppendWrite-µarch software model vs simulator (train input)")
		fmt.Print(experiments.FormatSeries(experiments.Figure4()))
	}
	if want("fig5") {
		ran = true
		header(fmt.Sprintf("Figure 5: relative performance of CFI designs (%s input)", scale))
		fmt.Print(experiments.FormatSeries(experiments.Figure5(scale)))
	}
	if want("table6") {
		ran = true
		header("Table 6: size of HerQules-Go, in lines of code")
		out, err := experiments.Table6(".")
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	}
	if want("metrics") {
		ran = true
		header(fmt.Sprintf("§5.4 metrics under HQ-CFI-SfeStk-MODEL (%s input)", scale))
		fmt.Print(experiments.CollectMetrics(scale).Format())
	}
	if want("throughput") {
		ran = true
		header("Verifier throughput: scalar pump vs sharded batch pipeline")
		fmt.Print(experiments.FormatThroughput(
			experiments.Throughput(*msgs, []int{1, 4, 16}, 0, 0)))
	}
	if want("stats") {
		ran = true
		header("Component telemetry: kernel gate, verifier shards, IPC channels")
		fmt.Print(experiments.FormatStats(experiments.Stats(*procs, *msgs)))
	}
	if want("multiproc") {
		ran = true
		header("Supervisor scaling: aggregate verifier throughput vs concurrent monitored programs")
		rows, err := experiments.Multiproc(*msgs, experiments.MultiprocCounts())
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.FormatMultiproc(rows))
	}
	if want("latency") {
		ran = true
		header("End-to-end latency sampling: overhead and observed send → validate lag")
		rows, err := experiments.Latency(*msgs, *procs, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.FormatLatency(rows))
	}
	if want("obs") {
		ran = true
		header("Observability endpoint smoke")
		out, err := experiments.ObsSmoke()
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	}
	if want("chaos") {
		ran = true
		header("Chaos soak: seeded fault injection across the IPC → verifier → kernel path")
		out, err := experiments.Chaos(*seed, *procs)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	}
	if want("scaling") {
		ran = true
		header("Shard-scaling ladder: verifier msgs/sec vs shard count, per backend")
		scalingMsgs, reps := *msgs, 0
		if *quick {
			scalingMsgs, reps = 1<<17, 1
		}
		rep := experiments.Scaling(scalingMsgs, reps)
		fmt.Print(experiments.FormatScaling(rep))
		if *outFile != "" {
			writeJSON(*outFile, rep)
		}
	}
	if want("verify") {
		ran = true
		header("Gate-protocol model checking: exhaustive small-scope exploration")
		// The 3-proc deep scope (~550k states, minutes) runs only when
		// verify is asked for by name without -quick; under -exp all the
		// smoke scope keeps the total wall time sane.
		full := *exp == "verify" && !*quick
		out, err := experiments.Verify(full)
		fmt.Print(out)
		if err != nil {
			fatal(err)
		}
	}
	if want("policies") {
		ran = true
		header("Policy registry: fault-detection matrix and per-policy drain overhead")
		out, rep, err := experiments.Policies(*msgs, *quick)
		fmt.Print(out)
		if err != nil {
			fatal(err)
		}
		if *outFile != "" && *exp == "policies" {
			writeJSON(*outFile, rep)
		}
	}
	if want("forensics") {
		ran = true
		header("Flight recorder: kill attribution, drain overhead, zero-alloc stamp")
		out, rep, err := experiments.Forensics(*msgs, *quick)
		fmt.Print(out)
		if err != nil {
			fatal(err)
		}
		if *outFile != "" && *exp == "forensics" {
			writeJSON(*outFile, rep)
		}
	}
	if want("hqd") {
		ran = true
		header("Networked attestation plane soak: fail-closed connection lifecycle")
		out, rep, err := experiments.HQD(*seed, *procs, *quick)
		fmt.Print(out)
		if err != nil {
			fatal(err)
		}
		if *outFile != "" && *exp == "hqd" {
			writeJSON(*outFile, rep)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func header(s string) {
	fmt.Printf("\n%s\n%s\n", s, strings.Repeat("=", len(s)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// writeJSON persists one experiment's report artifact, indented with a
// trailing newline (the BENCH_*.json convention).
func writeJSON(file string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", file)
}
