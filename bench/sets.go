package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// machineStamp says where and when a result file was measured, so two
// files are only ever compared knowingly.
type machineStamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	TempFS     string  `json:"temp_dir_filesystem"`
	FsyncUS    float64 `json:"store.fsync_us"`
	Started    string  `json:"started"`
	WallS      float64 `json:"wall_s"`
	Seed       int64   `json:"seed"`
}

func stamp(tmpRoot string, seed int64, started time.Time) machineStamp {
	s := machineStamp{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", TempFS: "unknown",
		Started: started.UTC().Format(time.RFC3339), Seed: seed,
	}
	// Outside a git checkout (the acceptance driver's) the commit stays
	// unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/mounts"); err == nil {
		best := ""
		for _, line := range strings.Split(string(raw), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			if mp := f[1]; strings.HasPrefix(tmpRoot, mp) && len(mp) >= len(best) {
				best, s.TempFS = mp, f[2]+" on "+f[0]
			}
		}
	}
	return s
}

// setReport is one whole set: the probes once, then every workload
// untraced and traced.
type setReport struct {
	Probes    metricList       `json:"probes"`
	Workloads []workloadReport `json:"workloads"`
}

// bound is how far an end-to-end metric may worsen before -compare
// calls it a regression.
type bound struct {
	name   string
	better string  // "lower" or "higher"
	limit  float64 // share of the old median, or absolute when abs
	abs    bool
	only   string // the one workload it applies to; "" means all
	// gates: a regression fails -compare. Set where the same code reads
	// the same an hour later: BENCHMARK.json's metrics on the workloads
	// it names, and failed_frac. Elsewhere the box's disk and CPU move a
	// median past its bound between two invocations of one binary
	// (README, "Noise"), so the verdict is printed and the exit code
	// left alone.
	gates bool
}

// issueBounds are the issue's bounds for the end-to-end metrics
// BENCHMARK.json cannot carry (endToEnd says why).
var issueBounds = []bound{
	{name: "call_p99_ms", better: "lower", limit: 0.20},
	{name: "failed_frac", better: "lower", limit: 0.001, abs: true, gates: true},
	{name: "cpu_ms_per_call", better: "lower", limit: 0.10},
	{name: "heap_live_mb", better: "lower", limit: 0.10},
	{name: "outage_s", better: "lower", limit: 0.15, only: "churn"},
}

// boundFor finds the bound of a workload's metric: BENCHMARK.json's,
// else the issue's.
func boundFor(m *manifest, wl, metric string) (bound, bool) {
	for _, e := range m.EndToEnd {
		if e.Name != metric {
			continue
		}
		b := bound{name: e.Name, better: e.Better, limit: e.Bound}
		for _, w := range m.Workloads {
			b.gates = b.gates || w.Name == wl
		}
		return b, true
	}
	for _, b := range issueBounds {
		if b.name == metric && (b.only == "" || b.only == wl) {
			return b, true
		}
	}
	return bound{}, false
}

// spreadRow summarises one end-to-end metric of one workload over the
// sets of an invocation.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	// Spread is the quartile distance in the bound's terms: a share of
	// the median, or absolute under an absolute bound.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`           // 0: the metric has no bound on this workload
	Wanted float64 `json:"bound_for_noise"` // 2 x spread: what the noise asks the bound to be
}

// fileReport is what -json writes and -compare reads.
type fileReport struct {
	Stamp    machineStamp `json:"machine"`
	WindowS  float64      `json:"window_s"`
	WarmupS  float64      `json:"warmup_s"`
	Sets     []setReport  `json:"sets"`
	Spreads  []spreadRow  `json:"spreads"`
	Problems []string     `json:"problems"` // fail the command
	Warnings []string     `json:"warnings"` // reported, exit code unaffected
	// This benchmark claims no gain; the field closes every summary.
	Claim *string `json:"claim"`
}

// runSet measures one whole set.
func runSet(ctx context.Context, cfg setConfig, traceOut string) (*setReport, error) {
	probes, err := runProbes(cfg.tmpRoot)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	set := &setReport{Probes: probes}
	for _, wl := range cfg.workloads {
		path := traceOut
		if path != "" && len(cfg.workloads) > 1 {
			ext := filepath.Ext(path)
			path = strings.TrimSuffix(path, ext) + "." + wl.name + ext
		}
		// Half a window holds thousands of traced calls, enough for the
		// stage budget.
		w, err := measureWorkload(ctx, cfg, wl, cfg.window, cfg.window/2, path)
		if err != nil {
			return nil, err
		}
		set.Workloads = append(set.Workloads, *w)
	}
	return set, nil
}

func printMetrics(indent string, l metricList) {
	for _, m := range l {
		fmt.Printf("%s%-36s %14.4f %s\n", indent, m.Name, m.Value, m.Unit)
	}
}

func printSet(i int, set *setReport) {
	fmt.Printf("== set %d\n-- probes (per layer)\n", i+1)
	printMetrics("  ", set.Probes)
	for _, w := range set.Workloads {
		r := w.Run
		fmt.Printf("-- %s: %s\n", w.Name, w.Why)
		fmt.Printf("  verified %d of %d calls due in the window, %d failed\n", r.Attempted-r.Failed, r.Attempted, r.Failed)
		if r.SLO != "" {
			fmt.Printf("  SLO (p99 <= 100 ms, no failed call, no growing backlog): %s\n", r.SLO)
		}
		if !r.Valid {
			fmt.Printf("  INVALID: the load generator ran %.2f ms late at p99 (limit %v)\n", r.LagP99MS, lagLimit)
		}
		fmt.Printf("  end to end (call_p99_ms is the p%.4g of %d calls):\n", 100*r.TailQuantile, r.LatencyN)
		printMetrics("    ", w.EndToEnd)
		fmt.Println("  per layer (counters of the untraced run, then the traced run):")
		printMetrics("    ", w.PerLayer)
		fmt.Printf("    traced p50 differs from untraced by %.1f%% (limit %.0f%%)\n", 100*w.TraceAgreement, 100*traceAgreementLimit)
	}
}

// checkSet lists what makes a set fail the command, and what is only
// worth a warning: a traced run whose median latency sits too far from
// the untraced one describes the traced grid, not the untraced one, but
// that is the program's cost of tracing, not a fault of the run.
func checkSet(m *manifest, set *setReport, checkAgreement bool) (problems, warnings []string) {
	for i := range set.Workloads {
		w := &set.Workloads[i]
		for _, r := range w.runs() {
			if r.FailedFrac > maxFailedFrac {
				problems = append(problems, fmt.Sprintf("%s: failed_frac %.4f exceeds %.2f (first: %s)", w.Name, r.FailedFrac, maxFailedFrac, r.FirstFailure))
			}
		}
		if checkAgreement && w.TraceAgreement > traceAgreementLimit {
			warnings = append(warnings, fmt.Sprintf("%s: traced p50 is %.1f%% off the untraced p50 (limit %.0f%%): its stage budget describes the traced grid only", w.Name, 100*w.TraceAgreement, 100*traceAgreementLimit))
		}
		have := append(append(append(metricList(nil), set.Probes...), w.EndToEnd...), w.PerLayer...)
		_, missing := selectMetrics(append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...), have)
		for _, p := range missing {
			problems = append(problems, w.Name+": "+p)
		}
	}
	return problems, warnings
}

// spreads summarises every end-to-end metric of every workload over the
// sets.
func spreads(m *manifest, sets []setReport) []spreadRow {
	var rows []spreadRow
	if len(sets) == 0 {
		return rows
	}
	for wi, w := range sets[0].Workloads {
		for mi, mt := range w.EndToEnd {
			vals := make([]float64, len(sets))
			for si := range sets {
				vals[si] = sets[si].Workloads[wi].EndToEnd[mi].Value
			}
			row := spreadRow{Workload: w.Name, Metric: mt.Name, Unit: mt.Unit, Median: median(vals)}
			row.Q1, row.Q3 = quartiles(vals)
			b, bounded := boundFor(m, w.Name, mt.Name)
			switch {
			case b.abs:
				row.Spread = row.Q3 - row.Q1
			case row.Median != 0:
				row.Spread = (row.Q3 - row.Q1) / math.Abs(row.Median)
			}
			if bounded {
				row.Bound = b.limit
			}
			row.Wanted = 2 * row.Spread
			rows = append(rows, row)
		}
	}
	return rows
}

// maxBound is the widest regression bound the contract allows.
const maxBound = 0.25

func printSpreads(rows []spreadRow) {
	fmt.Println("== spread over the sets (quartile distance / median; absolute for failed_frac); a bound should be at least twice it")
	fmt.Printf("  %-12s %-18s %12s %12s %12s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, r := range rows {
		note := ""
		switch {
		case r.Bound == 0:
			note = "  (no bound)"
		case r.Wanted > maxBound:
			note = fmt.Sprintf("  UNRESOLVED: noise asks for %.3f, over the %.2f cap", r.Wanted, maxBound)
		case r.Wanted > r.Bound:
			note = fmt.Sprintf("  widen the bound to %.3f", r.Wanted)
		}
		fmt.Printf("  %-12s %-18s %12.4f %12.4f %12.4f %8.3f %8.3f%s\n", r.Workload, r.Metric, r.Median, r.Q1, r.Q3, r.Spread, r.Bound, note)
	}
}

// fullSets runs whole sets back to back, prints them, summarises their
// spread and writes the result file.
func fullSets(ctx context.Context, cfg setConfig, repeat int, quick bool, jsonOut, traceOut string) int {
	m, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	started := time.Now()
	report := fileReport{WindowS: cfg.window.Seconds(), WarmupS: cfg.warmup.Seconds(), Problems: []string{}, Warnings: []string{}}
	for i := 0; i < repeat; i++ {
		set, err := runSet(ctx, cfg, traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printSet(i, set)
		problems, warnings := checkSet(m, set, !quick)
		for _, p := range problems {
			report.Problems = append(report.Problems, fmt.Sprintf("set %d: %s", i+1, p))
		}
		for _, w := range warnings {
			report.Warnings = append(report.Warnings, fmt.Sprintf("set %d: %s", i+1, w))
		}
		report.Sets = append(report.Sets, *set)
	}
	if repeat > 1 {
		report.Spreads = spreads(m, report.Sets)
		printSpreads(report.Spreads)
	}
	report.Stamp = stamp(cfg.tmpRoot, cfg.seed, started)
	report.Stamp.WallS = time.Since(started).Seconds()
	report.Stamp.FsyncUS, _ = report.Sets[0].Probes.get("store.fsync_us")
	for _, w := range report.Warnings {
		fmt.Fprintln(os.Stderr, "bench: warning:", w)
	}
	for _, p := range report.Problems {
		fmt.Fprintln(os.Stderr, "bench: PROBLEM:", p)
	}
	if jsonOut != "" {
		raw, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Printf("claim: none (this benchmark defines the measurement; it claims no gain)\n")
	if len(report.Problems) > 0 {
		return 1
	}
	return 0
}

// The verdicts of -compare. The first two fail it.
const (
	verdictMissing    = "MISSING from the new file"
	verdictRegression = "REGRESSION"
	verdictWorse      = "worse (does not gate: this metric follows the box here, re-measure in pairs)"
	verdictUnresolved = "unresolved (spread wider than the bound)"
	verdictOK         = "ok"
)

// comparison is -compare's finding on one bounded metric of one
// workload. worse, bound and spread are shares of the old median, or
// absolute under an absolute bound.
type comparison struct {
	workload, metric               string
	old, new, worse, bound, spread float64
	verdict                        string
}

// compareSets applies the bounds to the medians of two files' sets. A
// metric is a regression (or, where its bound does not gate, worse)
// when it got worse by more than its bound and by more than either
// file's own spread; one that stayed inside a spread wider than its
// bound is unresolved, not unchanged.
func compareSets(m *manifest, oldSets, newSets []setReport) []comparison {
	newRows := make(map[[2]string]spreadRow)
	for _, r := range spreads(m, newSets) {
		newRows[[2]string{r.Workload, r.Metric}] = r
	}
	var out []comparison
	for _, o := range spreads(m, oldSets) {
		b, bounded := boundFor(m, o.Workload, o.Metric)
		if !bounded || (!b.abs && o.Median == 0) {
			continue
		}
		c := comparison{workload: o.Workload, metric: o.Metric, old: o.Median, bound: b.limit, verdict: verdictOK}
		n, ok := newRows[[2]string{o.Workload, o.Metric}]
		if !ok {
			c.verdict = verdictMissing
			out = append(out, c)
			continue
		}
		c.new, c.worse, c.spread = n.Median, n.Median-o.Median, math.Max(o.Spread, n.Spread)
		if b.better == "higher" {
			c.worse = -c.worse
		}
		if !b.abs {
			c.worse /= math.Abs(o.Median)
		}
		switch {
		case c.worse > math.Max(c.bound, c.spread) && b.gates:
			c.verdict = verdictRegression
		case c.worse > math.Max(c.bound, c.spread):
			c.verdict = verdictWorse
		case c.spread > c.bound:
			c.verdict = verdictUnresolved
		}
		out = append(out, c)
	}
	return out
}

// compareFiles prints compareSets over two result files and returns 1
// on a regression or a missing metric. Files measured over other
// windows are refused (2): heap and allocation per call depend on how
// long the job table grew.
func compareFiles(oldPath, newPath string) int {
	m, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var files [2]fileReport
	for i, path := range []string{oldPath, newPath} {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	o, n := &files[0], &files[1]
	fmt.Printf("old: %s (commit %s, seed %d, %d sets)   new: %s (commit %s, seed %d, %d sets)\n",
		oldPath, o.Stamp.Commit, o.Stamp.Seed, len(o.Sets), newPath, n.Stamp.Commit, n.Stamp.Seed, len(n.Sets))
	if o.WindowS != n.WindowS || o.WarmupS != n.WarmupS {
		fmt.Fprintf(os.Stderr, "bench: not comparable: %s measured %g s windows after %g s of warm-up, %s %g s after %g s\n",
			oldPath, o.WindowS, o.WarmupS, newPath, n.WindowS, n.WarmupS)
		return 2
	}
	fmt.Printf("  %-12s %-18s %12s %12s %9s %8s %8s  verdict\n", "workload", "metric", "old", "new", "worse by", "bound", "spread")
	bad := 0
	for _, c := range compareSets(m, o.Sets, n.Sets) {
		if c.verdict == verdictRegression || c.verdict == verdictMissing {
			bad++
		}
		fmt.Printf("  %-12s %-18s %12.4f %12.4f %+9.3f %8.3f %8.3f  %s\n", c.workload, c.metric, c.old, c.new, c.worse, c.bound, c.spread, c.verdict)
	}
	if bad > 0 {
		return 1
	}
	return 0
}
