package experiments

import (
	"fmt"

	"rpcv/internal/conform"
	"rpcv/internal/metrics"
)

// Sim runs the conformance + chaos matrix (internal/conform, the
// engine behind rpcv-sim) and reports the per-cell verdict table as
// an experiment result, so rpcv-bench -fig sim -json lands the grid's
// agreement evidence in BENCH_sim.json next to the performance
// figures. Quick trims to the CI smoke matrix; the full run is the
// embedded default suite — both stores, every scheduling policy and a
// multi-loop coordinator, each under the full fault taxonomy.
func Sim(opts Options) Result {
	opts.applyDefaults()
	suite, err := conform.ParseSuite(conform.DefaultSuite)
	if err != nil {
		// The embedded suite is covered by conform's tests; failing to
		// parse it is a build defect, not a runtime condition.
		panic(fmt.Sprintf("sim: embedded suite: %v", err))
	}
	rep, err := conform.Run(suite, conform.Options{Seed: opts.Seed, Quick: opts.Quick})
	if err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	summary := metrics.NewTable("Conformance summary", "suite", "cells-run", "verdict")
	verdict := "PASS"
	if !rep.Passed {
		verdict = "FAIL"
	}
	summary.AddRow(rep.Suite, len(rep.Verdicts), verdict)
	return Result{Name: "sim", Tables: []*metrics.Table{rep.Table, summary}}
}
