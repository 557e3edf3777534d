// Command rpcv-sim runs the conformance + chaos matrix: it boots a
// real loopback cluster per configuration cell (the coordinators'
// store: wal or memory), drives the same deterministic workload
// through every cell while injecting the fault taxonomy — asymmetric
// one-way partitions, slow/failing/torn disks mid-group-commit,
// stalled-not-dead coordinators, clock skew, crash/restart — and
// proves every configuration agrees on the identical result set.
//
// Usage:
//
//	rpcv-sim                       # embedded default suite, full matrix
//	rpcv-sim -quick                # smoke: 2 cells x 2 fault scenarios
//	rpcv-sim -suite chaos.sim      # a custom declarative scenario file
//	rpcv-sim -list                 # print the selected cells and scenarios
//	rpcv-sim -scenario disk-fault  # one scenario across every cell
//	rpcv-sim -cell store=wal       # cells whose label contains the tokens
//	rpcv-sim -artifacts out/       # flight bundles on failed verdicts
//	rpcv-sim -v                    # stream per-fault injection logs
//
// The per-cell verdict table prints on stdout; the exit status is 1
// when any cell fails (lost results, divergence, or harness error).
// See internal/conform for the scenario-file grammar.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rpcv/internal/conform"
)

func main() {
	suiteFile := flag.String("suite", "", "scenario file to run (empty: the embedded default suite)")
	quick := flag.Bool("quick", false, "smoke: first 2 cells x 2 fault scenarios")
	scenario := flag.String("scenario", "", "run only this scenario (comma-separated names)")
	cell := flag.String("cell", "", "run only cells whose label contains these space-separated tokens")
	artifacts := flag.String("artifacts", "", "directory for the flight bundles of failed verdicts")
	seed := flag.Int64("seed", 2004, "random seed")
	parallel := flag.Int("parallel", 0, "max concurrently running cells (0: auto)")
	list := flag.Bool("list", false, "print the selected matrix and exit")
	verbose := flag.Bool("v", false, "stream harness and fault-injection logs to stderr")
	flag.Parse()

	src := conform.DefaultSuite
	if *suiteFile != "" {
		raw, err := os.ReadFile(*suiteFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rpcv-sim: %v\n", err)
			os.Exit(2)
		}
		src = string(raw)
	}
	suite, err := conform.ParseSuite(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rpcv-sim: %v\n", err)
		os.Exit(2)
	}

	opts := conform.Options{
		Seed:        *seed,
		Quick:       *quick,
		ArtifactDir: *artifacts,
		Parallel:    *parallel,
	}
	if *scenario != "" {
		opts.Scenarios = splitComma(*scenario)
	}
	if *cell != "" {
		opts.Cells = []string{*cell}
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *artifacts != "" {
		if err := os.MkdirAll(*artifacts, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rpcv-sim: %v\n", err)
			os.Exit(2)
		}
	}

	if *list {
		fmt.Printf("suite %s: %d cells, %d scenarios\n", suite.Name, len(suite.Cells), len(suite.Scenarios))
		for _, c := range suite.Cells {
			fmt.Println("  cell", c.Label())
		}
		for _, sc := range suite.Scenarios {
			fmt.Printf("  scenario %s (%d events, %d calls)\n", sc.Name, len(sc.Events), sc.Calls)
		}
		return
	}

	rep, err := conform.Run(suite, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rpcv-sim: %v\n", err)
		os.Exit(2)
	}
	rep.Table.Write(os.Stdout)
	if !rep.Passed {
		for _, v := range rep.Verdicts {
			if v.Verdict != "pass" && v.Bundle != "" {
				fmt.Printf("post-mortem bundle: %s\n", v.Bundle)
			}
		}
		fmt.Println("FAIL")
		os.Exit(1)
	}
	fmt.Println("PASS: every configuration agrees")
}

func splitComma(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
