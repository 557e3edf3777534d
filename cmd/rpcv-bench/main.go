// Command rpcv-bench regenerates the paper's evaluation figures on the
// simulated testbed and prints each as a text table.
//
// Usage:
//
//	rpcv-bench -fig all            # every figure, paper-faithful scale
//	rpcv-bench -fig 7 -quick       # one figure, reduced sweep
//	rpcv-bench -fig 9 -seed 42     # different randomness
//	rpcv-bench -fig shard-scale -json   # + BENCH_<name>.json
//
// -json additionally writes each experiment's tables and series to
// BENCH_<experiment>.json in the current directory, for dashboards and
// regression tooling that should not scrape text tables.
//
// -loops caps the event-loop sweep of the loops-scale experiment — the
// one figure that runs a real loopback-TCP grid on the wall clock
// (default: this machine's GOMAXPROCS); sweep points above the cap are
// skipped so small boxes do not oversubscribe themselves.
//
// Absolute numbers come from the calibrated simulator, not the 2004
// testbed; the experiments package's tests assert the shape
// comparisons with the paper's figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"rpcv/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 4,5,6,7,8,9,10,11, ablation-*, shard-scale, sched-compare, loops-scale, sim, or all")
	quick := flag.Bool("quick", false, "reduced sweeps and populations")
	seed := flag.Int64("seed", 2004, "random seed")
	jsonOut := flag.Bool("json", false, "also write each experiment to BENCH_<experiment>.json")
	loops := flag.Int("loops", runtime.GOMAXPROCS(0), "cap on the per-core event-loop sweep of loops-scale")
	flag.Parse()

	opts := experiments.Options{Seed: *seed, Quick: *quick, Loops: *loops}
	runners := map[string]func(experiments.Options) experiments.Result{
		"4": experiments.Fig4, "5": experiments.Fig5, "6": experiments.Fig6,
		"7": experiments.Fig7, "8": experiments.Fig8, "9": experiments.Fig9,
		"10": experiments.Fig10, "11": experiments.Fig11,
		"ablation-heartbeat":   experiments.AblationHeartbeat,
		"ablation-replication": experiments.AblationReplicationPeriod,
		"ablation-recovery":    experiments.AblationRecovery,
		"shard-scale":          experiments.ShardScale,
		"sched-compare":        experiments.SchedCompare,
		"loops-scale":          experiments.LoopsScale,
		"sim":                  experiments.Sim,
	}
	order := []string{"4", "5", "6", "7", "8", "9", "10", "11",
		"ablation-heartbeat", "ablation-replication", "ablation-recovery",
		"shard-scale", "sched-compare", "loops-scale", "sim"}

	var selected []string
	if *fig == "all" {
		selected = order
	} else {
		for _, f := range strings.Split(*fig, ",") {
			f = strings.TrimSpace(f)
			if _, ok := runners[f]; !ok {
				fmt.Fprintf(os.Stderr, "rpcv-bench: unknown figure %q (want 4..11, ablation-*, shard-scale, sched-compare, loops-scale, sim, or all)\n", f)
				os.Exit(2)
			}
			selected = append(selected, f)
		}
	}

	for _, f := range selected {
		start := time.Now()
		res := runners[f](opts)
		for _, tb := range res.Tables {
			tb.Write(os.Stdout)
			fmt.Println()
		}
		if *jsonOut {
			if err := writeJSON(res); err != nil {
				fmt.Fprintf(os.Stderr, "rpcv-bench: -json: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(os.Stderr, "rpcv-bench: %s done in %v (wall clock)\n", res.Name, time.Since(start).Round(time.Millisecond))
	}
}

// writeJSON dumps one experiment result to BENCH_<name>.json. Table
// cells keep their display formatting (metrics.Table.MarshalJSON);
// series points are raw offsets and values.
func writeJSON(res experiments.Result) error {
	name := "BENCH_" + sanitize(res.Name) + ".json"
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(name, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rpcv-bench: wrote %s\n", name)
	return nil
}

// sanitize maps an experiment name to a filename-safe token.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, name)
}
