package main

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"rpcv/internal/obs"
	"rpcv/internal/proto"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 0.99}, // plenty beyond p99
		{1000, 0.99},   // exactly ten beyond
		{500, 0.98},    // p99 would leave five: drop to p98
		{20, 0.5},      // ten beyond the median, none to spare
		{19, 0.5},      // too few for any tail
		{0, 0.5},
	} {
		if got := tailQuantile(c.n, 0.99); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Whatever it picks, at least tailSamples samples lie beyond it.
	for n := 2 * tailSamples; n < 3000; n += 7 {
		q := tailQuantile(n, 0.99)
		if beyond := float64(n) * (1 - q); beyond < tailSamples-1e-9 {
			t.Fatalf("n=%d: quantile %v leaves %.2f samples beyond", n, q, beyond)
		}
	}
}

func TestQuantileAndQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(xs, 0.5); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := quantile(xs, 1); got != 10 {
		t.Errorf("max = %v, want 10", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := trimmedMean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Errorf("trimmedMean = %v, want 3.5", got)
	}
}

func TestSchedulesAreSeeded(t *testing.T) {
	a := arrivals(7, 0, 150, 5*time.Second)
	if !reflect.DeepEqual(a, arrivals(7, 0, 150, 5*time.Second)) {
		t.Error("same seed, different arrivals")
	}
	if reflect.DeepEqual(a, arrivals(8, 0, 150, 5*time.Second)) || reflect.DeepEqual(a, arrivals(7, 1, 150, 5*time.Second)) {
		t.Error("another seed or session gave the same arrivals")
	}
	if n := len(a); n < 600 || n > 900 {
		t.Errorf("%d arrivals in 5 s at 150/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}

	warmup, window := 2*time.Second, 20*time.Second
	f := faultSchedule(7, 4, warmup, window)
	if !reflect.DeepEqual(f, faultSchedule(7, 4, warmup, window)) {
		t.Error("same seed, different fault schedule")
	}
	if reflect.DeepEqual(f, faultSchedule(8, 4, warmup, window)) {
		t.Error("another seed gave the same fault schedule")
	}
	down := map[int]time.Duration{}
	nextServer, coKills := 0, 0
	for i, ev := range f {
		if i > 0 && ev.at < f[i-1].at {
			t.Fatalf("fault schedule out of order at %d", i)
		}
		switch {
		case ev.kill:
			if _, already := down[ev.server]; already {
				t.Fatalf("node %d killed twice without a restart", ev.server)
			}
			down[ev.server] = ev.at
			if ev.server < 0 {
				coKills++
				if ev.at != warmup+window/2 {
					t.Errorf("coordinator killed at %v, want %v", ev.at, warmup+window/2)
				}
			} else {
				if ev.server != nextServer {
					t.Errorf("killed server %d, round-robin wants %d", ev.server, nextServer)
				}
				nextServer = (nextServer + 1) % 4
			}
		default:
			at, ok := down[ev.server]
			if !ok {
				t.Fatalf("node %d restarted while up", ev.server)
			}
			want := serverDowntime
			if ev.server < 0 {
				want = maxCoDowntime
			}
			if ev.at-at != want {
				t.Errorf("node %d down for %v, want %v", ev.server, ev.at-at, want)
			}
			delete(down, ev.server)
		}
	}
	if len(down) != 0 || coKills != 1 {
		t.Errorf("schedule leaves %v down, kills the coordinator %d times", down, coKills)
	}
}

func TestPayloadCarriesStamp(t *testing.T) {
	src := newPayloadSource(3, 1, 64)
	a, b := src.next(5), src.next(6)
	if len(a) != 64 || len(b) != 64 {
		t.Fatalf("payload sizes %d, %d", len(a), len(b))
	}
	if reflect.DeepEqual(a, b) {
		t.Error("two calls share a payload")
	}
	if !reflect.DeepEqual(a, newPayloadSource(3, 1, 64).next(5)) {
		t.Error("same seed, session and seq gave another payload")
	}
	if reflect.DeepEqual(a[stampLen:], newPayloadSource(4, 1, 64).next(5)[stampLen:]) {
		t.Error("another seed gave the same payload bytes")
	}
}

func TestStagesTelescope(t *testing.T) {
	call := proto.CallID{User: "u0", Session: 1, Seq: 9}
	base := time.Unix(1_700_000_000, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	span := func(stage obs.Stage, node proto.NodeID, ms int) obs.Span {
		return obs.Span{Call: call, Stage: stage, Node: node, At: at(ms)}
	}
	// A call whose first instance died with its server: dispatched and
	// executed twice; the second execution produced the result.
	client := []obs.Span{span(obs.StageSubmit, "cli", 0), span(obs.StageDurable, "cli", 1), span(obs.StageAck, "cli", 400)}
	coord := []obs.Span{
		span(obs.StageEnqueue, "co", 2), span(obs.StageDispatch, "co", 10),
		span(obs.StageRequeue, "co", 270), span(obs.StageDispatch, "co", 280),
		span(obs.StageResult, "co", 305),
	}
	servers := []obs.Span{span(obs.StageExec, "sv0", 31), span(obs.StageExec, "sv1", 301), span(obs.StageExec, "sv1", 350)}
	tls := obs.Assemble(client, coord, servers)
	if len(tls) != 1 {
		t.Fatalf("%d timelines, want 1", len(tls))
	}
	cut, ok := cutTimeline(tls[0])
	if !ok {
		t.Fatal("complete timeline reported incomplete")
	}
	want := stageCut{at(0), at(2), at(280), at(301), at(305), at(400)}
	if cut != want {
		t.Errorf("cut = %v, want %v", cut, want)
	}
	var sum time.Duration
	for _, st := range cut.stages() {
		if st < 0 {
			t.Errorf("negative stage in %v", cut.stages())
		}
		sum += st
	}
	if sum != 400*time.Millisecond {
		t.Errorf("stages sum to %v, submit->ack is 400ms", sum)
	}

	// No result span: the call must count as missing, not as zeros.
	if _, ok := cutTimeline(obs.Assemble(client, coord[:4], servers)[0]); ok {
		t.Error("timeline without a result span reported complete")
	}
	if _, ok := cutTimeline(obs.Timeline{}); ok {
		t.Error("empty timeline reported complete")
	}
}

func TestStubEnv(t *testing.T) {
	env := newStubEnv("n0")
	start := env.Now()
	var fired []string
	env.After(3*time.Millisecond, func() { fired = append(fired, "c") })
	env.After(time.Millisecond, func() {
		fired = append(fired, "a")
		// Armed while firing and due inside the same advance.
		env.After(time.Millisecond, func() { fired = append(fired, "b") })
		if got := env.Now().Sub(start); got != time.Millisecond {
			t.Errorf("timer a saw the clock at +%v", got)
		}
	})
	stopped := env.After(2*time.Millisecond, func() { fired = append(fired, "stopped") })
	stopped.Stop()
	late := false
	env.After(time.Second, func() { late = true })

	env.advance(5 * time.Millisecond)
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(fired, want) {
		t.Errorf("fired %v, want %v", fired, want)
	}
	if late || env.Now().Sub(start) != 5*time.Millisecond {
		t.Errorf("late=%v clock=+%v after advancing 5ms", late, env.Now().Sub(start))
	}
	env.advance(time.Second)
	if !late {
		t.Error("timer due at +1s did not fire")
	}

	env.Send("peer", &proto.SubmitAck{})
	if got := env.take(); len(got) != 1 || got[0].to != "peer" {
		t.Errorf("captured %v", got)
	}
	if len(env.take()) != 0 {
		t.Error("take did not clear the capture")
	}
	if err := env.Disk().Write("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok := env.Disk().Read("k"); !ok || string(v) != "v" {
		t.Errorf("disk read %q, %v", v, ok)
	}
}

// TestQuickSmoke runs what `bench -quick` runs — every workload, the
// probes and a traced run — and checks that every metric BENCHMARK.json
// names comes out finite.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real grids for several seconds")
	}
	m, err := readManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := setConfig{seed: 1, window: 2 * time.Second, warmup: 500 * time.Millisecond, setups: 1, tmpRoot: t.TempDir()}

	probes, err := runProbes(cfg.tmpRoot)
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, w := range m.Workloads {
		named[w.Name] = true
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the bench does not run", w.Name)
		}
	}
	for _, wl := range workloads() {
		tracedWindow := time.Duration(0)
		if wl.name == "steady" {
			tracedWindow = cfg.window
		}
		w, err := measureWorkload(ctx, cfg, wl, cfg.window, tracedWindow, "")
		if err != nil {
			t.Fatal(err)
		}
		if w.Run.Attempted == 0 {
			t.Errorf("%s: no call attempted", wl.name)
		}
		if _, problems := selectMetrics(m.EndToEnd, w.EndToEnd); len(problems) > 0 {
			t.Errorf("%s: %v", wl.name, problems)
		}
		for _, e := range m.EndToEnd {
			if v, _ := w.EndToEnd.get(e.Name); named[wl.name] && v <= 0 {
				t.Errorf("%s: %s = %v; BENCHMARK.json's end-to-end metrics must never read 0", wl.name, e.Name, v)
			}
		}
		if wl.name != "steady" {
			continue
		}
		if w.Run.FailedFrac != 0 {
			t.Errorf("steady: failed_frac %v (%s)", w.Run.FailedFrac, w.Run.FirstFailure)
		}
		layers := append(append(probes, w.EndToEnd...), w.PerLayer...)
		if _, problems := selectMetrics(m.PerLayer, layers); len(problems) > 0 {
			t.Errorf("steady per-layer: %v", problems)
		}
		if got, want := len(layers), len(m.EndToEnd)+len(m.PerLayer); got != want {
			t.Errorf("the bench emits %d metrics, BENCHMARK.json names %d", got, want)
		}
		if w.TracedRun.trace.missingFrac > 0.01 {
			t.Errorf("steady: %.3f of traced calls lack a stage span", w.TracedRun.trace.missingFrac)
		}
	}
}

// TestCompareVerdicts checks -compare's verdicts: what gates, what is
// only reported, and that a spread wider than the bound is unresolved.
func TestCompareVerdicts(t *testing.T) {
	m := &manifest{
		Workloads: []manifestWorkload{{Name: "churn"}},
		EndToEnd:  []manifestMetric{{Name: "goodput_cps", Unit: "calls/s", Better: "higher", Bound: 0.15}},
	}
	sets := func(wl string, goodput []float64, failedFrac float64) []setReport {
		var out []setReport
		for _, g := range goodput {
			out = append(out, setReport{Workloads: []workloadReport{{
				Name: wl,
				EndToEnd: metricList{
					{"goodput_cps", g, "calls/s"}, {"failed_frac", failedFrac, "ratio"}, {"cpu_ms_per_call", 1000 / g, "ms"},
				},
			}}})
		}
		return out
	}
	verdicts := func(oldSets, newSets []setReport) map[string]string {
		out := map[string]string{}
		for _, v := range compareSets(m, oldSets, newSets) {
			out[v.metric] = v.verdict
		}
		return out
	}
	calm, slow, noisy := []float64{100, 101, 99, 100, 102}, []float64{80, 81, 79, 80, 82}, []float64{60, 100, 140, 80, 120}
	for _, c := range []struct {
		name     string
		old, new []setReport
		want     map[string]string
	}{
		{"same readings", sets("churn", calm, 0), sets("churn", calm, 0),
			map[string]string{"goodput_cps": verdictOK, "failed_frac": verdictOK, "cpu_ms_per_call": verdictOK}},
		{"a fifth slower, 0.9 % of calls failed", sets("churn", calm, 0), sets("churn", slow, 0.009),
			map[string]string{"goodput_cps": verdictRegression, "failed_frac": verdictRegression, "cpu_ms_per_call": verdictWorse}},
		{"a workload BENCHMARK.json does not name", sets("saturate", calm, 0), sets("saturate", slow, 0.009),
			map[string]string{"goodput_cps": verdictWorse, "failed_frac": verdictRegression, "cpu_ms_per_call": verdictWorse}},
		{"spread wider than the bound", sets("churn", noisy, 0), sets("churn", noisy, 0),
			map[string]string{"goodput_cps": verdictUnresolved, "failed_frac": verdictOK, "cpu_ms_per_call": verdictUnresolved}},
	} {
		if got := verdicts(c.old, c.new); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}
