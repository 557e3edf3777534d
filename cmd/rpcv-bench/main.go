// Command rpcv-bench regenerates the paper's evaluation figures on the
// simulated testbed and prints each as a text table.
//
// Usage:
//
//	rpcv-bench -fig all            # every figure, paper-faithful scale
//	rpcv-bench -fig 7 -quick       # one figure, reduced sweep
//	rpcv-bench -fig 9 -seed 42     # different randomness
//
// Every figure runs on the discrete-event simulator (internal/cluster),
// the one place the paper's cost models are charged; the real-TCP
// measurements are bench/'s and the conformance matrix is rpcv-sim's.
//
// Absolute numbers come from the calibrated simulator, not the 2004
// testbed; the experiments package's tests assert the shape
// comparisons with the paper's figures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rpcv/internal/experiments"
)

var (
	runners = map[string]func(experiments.Options) experiments.Result{
		"4": experiments.Fig4, "5": experiments.Fig5, "6": experiments.Fig6,
		"7": experiments.Fig7, "8": experiments.Fig8, "9": experiments.Fig9,
		"10": experiments.Fig10, "11": experiments.Fig11,
		"ablation-heartbeat":   experiments.AblationHeartbeat,
		"ablation-replication": experiments.AblationReplicationPeriod,
		"ablation-recovery":    experiments.AblationRecovery,
	}
	order = []string{"4", "5", "6", "7", "8", "9", "10", "11",
		"ablation-heartbeat", "ablation-replication", "ablation-recovery"}
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 4,5,6,7,8,9,10,11, ablation-*, or all")
	quick := flag.Bool("quick", false, "reduced sweeps and populations")
	seed := flag.Int64("seed", 2004, "random seed")
	flag.Parse()

	var selected []string
	if *fig == "all" {
		selected = order
	} else {
		for _, f := range strings.Split(*fig, ",") {
			f = strings.TrimSpace(f)
			if _, ok := runners[f]; !ok {
				fmt.Fprintf(os.Stderr, "rpcv-bench: unknown figure %q (want 4..11, ablation-*, or all)\n", f)
				os.Exit(2)
			}
			selected = append(selected, f)
		}
	}

	run(os.Stdout, selected, experiments.Options{Seed: *seed, Quick: *quick})
}

// run regenerates the figures named in selected and writes their tables
// to w; how long each took on the wall clock goes to stderr, the one
// line of the output that changes from run to run.
func run(w io.Writer, selected []string, opts experiments.Options) {
	for _, f := range selected {
		start := time.Now()
		res := runners[f](opts)
		for _, tb := range res.Tables {
			tb.Write(w)
			fmt.Fprintln(w)
		}
		fmt.Fprintf(os.Stderr, "rpcv-bench: %s done in %v (wall clock)\n", res.Name, time.Since(start).Round(time.Millisecond))
	}
}
