// Package conform is the conformance + chaos matrix harness behind
// rpcv-sim: it boots real loopback clusters — one per cell of the
// configuration matrix (store x scheduling policy) —
// drives the same deterministic workload through each, injects the
// fault taxonomy from a declarative scenario timeline (asymmetric
// one-way partitions, slow/failing/torn disks mid-group-commit,
// stalled-not-dead coordinators, clock skew, crash/restart), and
// asserts every configuration agrees: the
// identical (CallID -> result) set, zero lost completed results, one
// canonical digest.
//
// The workload is a pure function of call identity, so the expected
// result set is computed analytically — no reference run, no blessed
// config. A cell that loses a result, delivers a diverging output, or
// lands on a different digest fails its cell verdict. With an
// artifact directory set, every run's fault/verdict timeline is
// persisted as framed protocol messages readable by
// proto.NewWireDecoder, and a failed cell also leaves one flight
// bundle (internal/obs/fleet) for the post-mortem.
package conform

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"rpcv/internal/metrics"
)

// Options configures a conformance run.
type Options struct {
	// Seed feeds every node's deterministic RNG streams.
	Seed int64

	// Quick trims the run to CI-smoke size: the first two matrix
	// cells against two fault scenarios.
	Quick bool

	// ArtifactDir, when set, enables the observability plane: framed
	// SimFault/SimVerdict artifacts per cell, plus a flight bundle
	// captured on every failed verdict.
	ArtifactDir string

	// Parallel caps concurrently running cells. Zero picks a small
	// default from the host's CPU count; 1 forces sequential runs.
	Parallel int

	// Scenarios, when non-empty, restricts the run to these scenario
	// names. Cells likewise restricts by substring of the cell label.
	Scenarios []string
	Cells     []string

	// Logf receives harness and node logs. Nil discards them.
	Logf func(string, ...any)
}

// CellVerdict grades one (cell, scenario) run.
type CellVerdict struct {
	Cell      string
	Scenario  string
	Verdict   string // "pass" | "lost-results" | "divergent" | "uncollected" | "error"
	Digest    string
	Delivered int
	Expected  int
	Faults    int
	Elapsed   time.Duration
	Detail    string // failure explanation, empty on pass
	Bundle    string // flight-recorder bundle path, when captured
}

// Report is a full conformance run's outcome.
type Report struct {
	Suite    string
	Verdicts []CellVerdict
	Table    *metrics.Table
	Passed   bool
}

// quickScenarioCount and quickCellCount bound the -quick smoke run.
const (
	quickCellCount     = 2
	quickScenarioCount = 2
)

// Run executes the suite's full scenario x cell matrix and grades
// every run. The error return is reserved for harness misuse (empty
// selection); infrastructure failures inside a cell surface as
// "error" verdicts so one broken cell cannot mask the rest.
func Run(suite *Suite, opts Options) (*Report, error) {
	cells, scenarios := selectMatrix(suite, opts)
	if len(cells) == 0 {
		return nil, fmt.Errorf("conform: no cells selected")
	}
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("conform: no scenarios selected")
	}

	type slot struct {
		sc   *Scenario
		cell Cell
	}
	var runs []slot
	for _, sc := range scenarios {
		for _, c := range cells {
			runs = append(runs, slot{sc, c})
		}
	}
	verdicts := make([]CellVerdict, len(runs))

	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.NumCPU() / 2
		if workers < 1 {
			workers = 1
		}
		if workers > 4 {
			workers = 4
		}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range runs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			verdicts[i] = runCell(suite.Name, runs[i].cell, runs[i].sc, opts)
		}()
	}
	wg.Wait()

	// Cross-config agreement: every cell of a scenario must land on
	// one digest. Per-cell grading already pins each digest to the
	// analytic expectation; this guards the harness against an
	// expectation bug silently blessing disagreement.
	byScenario := map[string]string{}
	for i := range verdicts {
		v := &verdicts[i]
		if v.Verdict != "pass" {
			continue
		}
		if first, ok := byScenario[v.Scenario]; !ok {
			byScenario[v.Scenario] = v.Digest
		} else if first != v.Digest {
			v.Verdict = "divergent"
			v.Detail = fmt.Sprintf("digest disagrees with sibling cells (%s vs %s)", v.Digest, first)
		}
	}

	rep := &Report{Suite: suite.Name, Verdicts: verdicts, Passed: true}
	rep.Table = metrics.NewTable(
		fmt.Sprintf("Conformance matrix: suite %q, %d cells x %d scenarios", suite.Name, len(cells), len(scenarios)),
		"scenario", "cell", "verdict", "digest", "delivered", "faults", "elapsed", "detail")
	for _, v := range verdicts {
		if v.Verdict != "pass" {
			rep.Passed = false
		}
		rep.Table.AddRow(v.Scenario, v.Cell, v.Verdict, v.Digest,
			fmt.Sprintf("%d/%d", v.Delivered, v.Expected), v.Faults,
			v.Elapsed.Round(time.Millisecond), v.Detail)
	}
	return rep, nil
}

// selectMatrix applies Quick and the name filters to the suite.
func selectMatrix(suite *Suite, opts Options) ([]Cell, []*Scenario) {
	cells := make([]Cell, len(suite.Cells))
	copy(cells, suite.Cells)
	var scenarios []*Scenario
	for i := range suite.Scenarios {
		scenarios = append(scenarios, &suite.Scenarios[i])
	}
	if len(opts.Cells) > 0 {
		var keep []Cell
		for _, c := range cells {
			for _, want := range opts.Cells {
				if containsAll(c.Label(), want) {
					keep = append(keep, c)
					break
				}
			}
		}
		cells = keep
	}
	if len(opts.Scenarios) > 0 {
		var keep []*Scenario
		for _, sc := range scenarios {
			for _, want := range opts.Scenarios {
				if sc.Name == want {
					keep = append(keep, sc)
					break
				}
			}
		}
		scenarios = keep
	}
	if opts.Quick {
		if len(cells) > quickCellCount {
			cells = cells[:quickCellCount]
		}
		// Prefer scenarios that actually inject faults: the smoke run
		// exists to prove the chaos plane, not just the happy path.
		var faulty, calm []*Scenario
		for _, sc := range scenarios {
			if len(sc.Events) > 0 {
				faulty = append(faulty, sc)
			} else {
				calm = append(calm, sc)
			}
		}
		picked := faulty
		if len(picked) > quickScenarioCount {
			picked = picked[:quickScenarioCount]
		}
		for len(picked) < quickScenarioCount && len(calm) > 0 {
			picked = append(picked, calm[0])
			calm = calm[1:]
		}
		scenarios = picked
	}
	return cells, scenarios
}

// containsAll reports whether every space-separated token of want
// appears in label.
func containsAll(label, want string) bool {
	for _, tok := range strings.Fields(want) {
		if !strings.Contains(label, tok) {
			return false
		}
	}
	return true
}
