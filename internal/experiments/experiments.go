// Package experiments regenerates every figure of the paper's
// evaluation section (figures 4 through 11) on the simulated testbed,
// and nothing else: the package imports no real-time runtime (make lint
// checks the import graph). The real-TCP measurements live in bench/,
// the conformance matrix in cmd/rpcv-sim.
//
// Each FigN function runs the corresponding experiment and returns its
// data as metrics tables/series, which cmd/rpcv-bench prints and
// bench_test.go exercises. A Scale factor shrinks sweeps for quick CI
// runs; Scale=1 is the paper-faithful configuration.
//
// The absolute numbers differ from the paper's (our substrate is a
// calibrated simulator, not the 2004 testbed); the package's tests
// assert the shape comparisons that must hold.
package experiments

import (
	"rpcv/internal/metrics"
)

// Options tunes experiment scale.
type Options struct {
	// Seed drives all randomness; 0 means 2004.
	Seed int64
	// Quick shrinks sweeps and populations for fast runs (tests).
	Quick bool
}

func (o *Options) applyDefaults() {
	if o.Seed == 0 {
		o.Seed = 2004
	}
}

// Result is one experiment's output: tables (always) and optional
// time series for the completed-task figures.
type Result struct {
	Name   string
	Tables []*metrics.Table
	Series []*metrics.Series
}

// sizeSweep returns the data-size axis of figures 4-6: 100 B to 100 MB
// in decades, as in the paper's log x-axis.
func sizeSweep(quick bool) []int {
	if quick {
		return []int{100, 10_000, 1_000_000}
	}
	return []int{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}
}

// countSweep returns the call-count axis of figures 4-6: 1 to 1000.
func countSweep(quick bool) []int {
	if quick {
		return []int{1, 16, 128}
	}
	return []int{1, 4, 16, 64, 256, 1000}
}
