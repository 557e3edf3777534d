package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"time"

	"rpcv/internal/obs"
)

// metric is one named reading.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricList []metric

func (l *metricList) add(name string, value float64, unit string) {
	*l = append(*l, metric{name, value, unit})
}

func (l metricList) find(name string) (metric, bool) {
	for _, m := range l {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (l metricList) get(name string) (float64, bool) {
	m, ok := l.find(name)
	return m.Value, ok
}

// endToEnd lists a run's end-to-end metrics: first the six
// BENCHMARK.json bounds, then the issue's other five. Those five are 0
// on a healthy run (failed_frac) or follow the box's disk and CPU past
// any bound the contract allows (README, "Noise"), so BENCHMARK.json
// carries them as per-layer metrics and -compare bounds them itself
// (issueBounds).
func endToEnd(r *runResult) metricList {
	var l metricList
	l.add("setup_s", r.SetupS, "s")
	l.add("goodput_cps", r.GoodputCPS, "calls/s")
	l.add("call_p50_ms", r.CallP50MS, "ms")
	l.add("call_p80_ms", r.CallP80MS, "ms")
	l.add("alloc_kb_per_call", r.AllocKBCall, "KB")
	l.add("heap_kb_per_call", r.HeapKBCall, "KB")
	l.add("call_p99_ms", r.CallP99MS, "ms")
	l.add("failed_frac", r.FailedFrac, "ratio")
	l.add("cpu_ms_per_call", r.CPUMSPerCall, "ms")
	l.add("heap_live_mb", r.HeapLiveMB, "MB")
	l.add("outage_s", r.OutageS, "s")
	return l
}

// perCall divides a window counter by the window's completed calls.
func perCall(n int64, r *runResult, scale float64) float64 {
	if r.Completed == 0 {
		return 0
	}
	return scale * float64(n) / float64(r.Completed)
}

// counterMetrics lists the per-layer metrics an untraced run yields
// from the nodes' always-on Stats accessors.
func counterMetrics(r *runResult) metricList {
	c := r.counters
	var l metricList
	l.add("rt.envelopes_per_call", perCall(c[cSent], r, 1), "count")
	l.add("rt.flushes_per_call", perCall(c[cFlushes], r, 1), "count")
	l.add("rt.dropped_per_kcall", perCall(c[cDropped], r, 1000), "count")
	l.add("rt.redials_total", float64(c[cRedials]), "count")
	l.add("rt.co_loop_tasks_per_call", perCall(c[cCoTasks], r, 1), "count")
	l.add("rt.co_mailbox_depth_max", float64(r.mailboxMax), "count")
	l.add("coordinator.submits_per_call", perCall(c[cSubmits], r, 1), "count")
	l.add("coordinator.dup_results_per_kcall", perCall(c[cDupResults], r, 1000), "count")
	l.add("coordinator.rescheduled_per_kcall", perCall(c[cRescheds], r, 1000), "count")
	l.add("server.executed_per_call", perCall(c[cExecuted], r, 1), "count")
	l.add("server.dedup_per_kcall", perCall(c[cDedup], r, 1000), "count")
	l.add("client.syncs_total", float64(c[cSyncs]), "count")
	l.add("client.failovers_total", float64(c[cFailovers]), "count")
	l.add("loadgen.call_p90_ms", r.CallP90MS, "ms")
	l.add("loadgen.lag_p99_ms", r.LagP99MS, "ms")
	l.add("loadgen.decay_ratio", r.DecayRatio, "ratio")
	return l
}

// tracedMetrics lists the per-layer metrics of a traced run, and what
// tracing cost against the untraced run of the same workload.
func tracedMetrics(untraced, traced *runResult) metricList {
	tr := traced.trace
	var l metricList
	st := tr.store
	perCommit := 0.0
	if st.commits > 0 {
		perCommit = st.ops / st.commits
	}
	l.add("store.fsyncs_per_call", perCall(int64(st.commits), traced, 1), "count")
	l.add("store.ops_per_fsync", perCommit, "count")
	l.add("store.snapshots_total", st.snapshots, "count")
	l.add("store.write_wait_us.p50", tr.writeWaitP50US, "us")
	l.add("store.write_wait_us.p99", tr.writeWaitP99US, "us")
	l.add("rt.msgs_per_flush.p50", tr.msgsPerFlushP50, "count")
	for i, name := range stageNames {
		l.add("trace."+name+"_ms.p50", tr.stageP50[i], "ms")
		l.add("trace."+name+"_ms.p99", tr.stageP99[i], "ms")
	}
	l.add("trace.unattributed_ms.p50", tr.unattributedP50, "ms")
	l.add("trace.spans_missing_frac", tr.missingFrac, "ratio")
	frac := func(base, delta float64) float64 {
		if base == 0 {
			return 0
		}
		return delta / base
	}
	l.add("obs.overhead_cpu_frac", frac(untraced.CPUMSPerCall, traced.CPUMSPerCall-untraced.CPUMSPerCall), "ratio")
	l.add("obs.overhead_goodput_frac", frac(untraced.GoodputCPS, untraced.GoodputCPS-traced.GoodputCPS), "ratio")
	return l
}

// traceAgreementLimit is how far the traced run's median latency may
// sit from the untraced run's before the stage budget stops describing
// the untraced call.
const traceAgreementLimit = 0.15

// traceAgreement is |traced p50 - untraced p50| / untraced p50.
func traceAgreement(untraced, traced *runResult) float64 {
	if untraced.CallP50MS == 0 {
		return 0
	}
	return math.Abs(traced.trace.spanSumP50-untraced.CallP50MS) / untraced.CallP50MS
}

// manifestPath is where the benchmark's contract lives: run.sh starts
// the binary at the root of the checkout.
const manifestPath = "BENCHMARK.json"

// manifest is BENCHMARK.json, the benchmark's contract.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// selectMetrics picks the manifest's metrics out of have, in manifest
// order, and reports every one that is missing, not finite or carries
// another unit than the manifest states.
func selectMetrics(want []manifestMetric, have metricList) (metricList, []string) {
	var out metricList
	var problems []string
	for _, w := range want {
		m, ok := have.find(w.Name)
		switch {
		case !metricNameRE.MatchString(w.Name):
			problems = append(problems, fmt.Sprintf("%s: not a metric name", w.Name))
		case !ok:
			problems = append(problems, fmt.Sprintf("%s: named in BENCHMARK.json, missing from the output", w.Name))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			problems = append(problems, fmt.Sprintf("%s: %v is not finite", w.Name, m.Value))
		case m.Unit != w.Unit:
			problems = append(problems, fmt.Sprintf("%s: unit %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit))
		default:
			out = append(out, m)
		}
	}
	return out, problems
}

// setConfig is what every run of an invocation shares.
type setConfig struct {
	workloads []workload
	seed      int64
	window    time.Duration
	warmup    time.Duration
	setups    int
	tmpRoot   string
}

func (c setConfig) spec(wl workload, window time.Duration, traced bool) runSpec {
	spec := runSpec{wl: wl, seed: c.seed, warmup: c.warmup, window: window, traced: traced, tmpRoot: c.tmpRoot}
	if !traced {
		spec.setups = c.setups
	}
	return spec
}

// workloadReport is what measuring one workload yields.
type workloadReport struct {
	Name           string     `json:"name"`
	Why            string     `json:"why"`
	Run            *runResult `json:"run"`
	TracedRun      *runResult `json:"traced_run,omitempty"`
	EndToEnd       metricList `json:"end_to_end"`
	PerLayer       metricList `json:"per_layer"`
	TraceAgreement float64    `json:"trace_agreement_frac"`
}

// runs lists the report's runs, the untraced one first.
func (w *workloadReport) runs() []*runResult {
	if w.TracedRun == nil {
		return []*runResult{w.Run}
	}
	return []*runResult{w.Run, w.TracedRun}
}

// measureWorkload is the one path every mode measures a workload by: an
// untraced run of window (end-to-end metrics and counters), then, when
// tracedWindow > 0, the same workload again with the Obs plane on (the
// traced per-layer metrics and what tracing cost). traceOut, when set,
// receives the traced run's timelines as Chrome trace JSON.
func measureWorkload(ctx context.Context, cfg setConfig, wl workload, window, tracedWindow time.Duration, traceOut string) (*workloadReport, error) {
	res, err := runWorkload(ctx, cfg.spec(wl, window, false))
	if err != nil {
		return nil, err
	}
	w := &workloadReport{Name: wl.name, Why: wl.why, Run: res, EndToEnd: endToEnd(res), PerLayer: counterMetrics(res)}
	if tracedWindow <= 0 {
		return w, nil
	}
	tres, err := runWorkload(ctx, cfg.spec(wl, tracedWindow, true))
	if err != nil {
		return nil, err
	}
	if traceOut != "" {
		if err := os.WriteFile(traceOut, obs.ChromeTrace(tres.trace.timelines), 0o644); err != nil {
			return nil, err
		}
	}
	tres.trace.timelines = nil // tens of thousands of spans; nothing reads them again
	w.TracedRun = tres
	w.PerLayer = append(w.PerLayer, tracedMetrics(res, tres)...)
	w.TraceAgreement = traceAgreement(res, tres)
	return w, nil
}

// maxFailedFrac is the share of failed calls past which a workload
// fails the whole command.
const maxFailedFrac = 0.01

// singleRun is the acceptance driver's entry: one workload, one seed,
// one JSON object as the last line of standard output. --trace 0 spends
// the whole of -seconds on one untraced window and prints the
// end-to-end metrics BENCHMARK.json names; --trace 1 runs the probes,
// splits -seconds between an untraced and a traced window and prints
// the per-layer metrics.
func singleRun(ctx context.Context, cfg setConfig, traced bool) int {
	m, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	wl := cfg.workloads[0]
	want, window, tracedWindow := m.EndToEnd, cfg.window, time.Duration(0)
	var have metricList
	if traced {
		cfg.setups = 0 // set-up time is an end-to-end metric: not printed here
		want, window, tracedWindow = m.PerLayer, cfg.window/2, cfg.window/2
		if have, err = runProbes(cfg.tmpRoot); err != nil {
			fmt.Fprintln(os.Stderr, "bench: probes:", err)
			return 1
		}
	}
	w, err := measureWorkload(ctx, cfg, wl, window, tracedWindow, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	out, problems := selectMetrics(want, append(append(have, w.EndToEnd...), w.PerLayer...))
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "bench:", p)
	}
	attempted, failed := 0, 0
	for _, r := range w.runs() {
		attempted, failed = attempted+r.Attempted, failed+r.Failed
		if r.FirstFailure != "" {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d calls failed, first: %s\n", wl.name, r.Failed, r.Attempted, r.FirstFailure)
		}
	}
	if traced {
		fmt.Fprintf(os.Stderr, "bench: %s traced p50 differs from untraced by %.1f%%\n", wl.name, 100*w.TraceAgreement)
	}
	if len(problems) > 0 || attempted == 0 {
		return 1
	}
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]reading, len(out)),
	}
	for _, mt := range out {
		line.Metrics[mt.Name] = reading{mt.Value, mt.Unit}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(enc))
	return 0
}
