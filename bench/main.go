// Command bench is the repo's benchmark: it boots a real loopback-TCP
// RPC-V grid in this process, drives it through the public GridRPC API,
// verifies every result and prints every metric by name with its unit.
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload (steady, saturate, bulk, churn, heavy, large); default all")
		seed         = flag.Int64("seed", 1, "seed of payload bytes, arrival times and the fault schedule")
		seconds      = flag.Float64("seconds", 20, "measured window per workload, seconds (BENCHMARK.json's run_seconds)")
		trace        = flag.Int("trace", -1, "single-run mode: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one JSON line")
		quick        = flag.Bool("quick", false, "smoke run: 2 s windows, 1 s warm-up")
		repeat       = flag.Int("repeat", 1, "run whole sets back to back and report medians, quartiles and spread")
		jsonOut      = flag.String("json", "", "write the full result (machine stamp included) to this file")
		traceOut     = flag.String("trace-out", "", "write the traced runs' spans as Chrome trace JSON to this file")
		compare      = flag.Bool("compare", false, "compare two -json files (old new) with BENCHMARK.json's bounds; non-zero exit on a regression")
	)
	flag.Parse()

	// The whole grid is this process and the reference box has two
	// cores: more would let the hosted nodes stop competing for CPU.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}

	if *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: -repeat must be at least 1")
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files: old.json new.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	tmpRoot, err := os.MkdirTemp("", "rpcv-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmpRoot)

	cfg := setConfig{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		warmup:  2 * time.Second,
		setups:  15,
		tmpRoot: tmpRoot,
	}
	if *quick {
		cfg.window, cfg.warmup, cfg.setups = 2*time.Second, time.Second, 1
	}
	if *workloadName != "" {
		wl, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		cfg.workloads = []workload{wl}
	} else {
		cfg.workloads = workloads()
	}

	if *trace >= 0 {
		if len(cfg.workloads) != 1 {
			fmt.Fprintln(os.Stderr, "bench: -trace needs -workload")
			return 2
		}
		return singleRun(ctx, cfg, *trace == 1)
	}
	return fullSets(ctx, cfg, *repeat, *quick, *jsonOut, *traceOut)
}
