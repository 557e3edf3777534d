package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// runSpec is one measured run of one workload.
type runSpec struct {
	wl      workload
	seed    int64
	warmup  time.Duration
	window  time.Duration
	setups  int  // extra throwaway grids booted only to sample the set-up time
	traced  bool // switch the program's Obs plane on and collect spans
	tmpRoot string
}

// runResult is everything one run measured.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	WindowS  float64 `json:"window_s"`
	Traced   bool    `json:"traced"`

	Attempted int `json:"attempted"` // calls due inside the window
	Failed    int `json:"failed"`
	Completed int `json:"completed"` // verified results that arrived inside the window

	SetupS       float64 `json:"setup_s"`
	GoodputCPS   float64 `json:"goodput_cps"`
	CallP50MS    float64 `json:"call_p50_ms"`
	CallP80MS    float64 `json:"call_p80_ms"`
	CallP90MS    float64 `json:"call_p90_ms"`
	CallP99MS    float64 `json:"call_p99_ms"`
	TailQuantile float64 `json:"call_p99_quantile"` // the quantile call_p99_ms really is
	LatencyN     int     `json:"latency_n"`
	FailedFrac   float64 `json:"failed_frac"`
	CPUMSPerCall float64 `json:"cpu_ms_per_call"`
	AllocKBCall  float64 `json:"alloc_kb_per_call"`
	HeapKBCall   float64 `json:"heap_kb_per_call"`
	HeapLiveMB   float64 `json:"heap_live_mb"`
	OutageS      float64 `json:"outage_s"`

	LagP99MS   float64 `json:"loadgen_lag_p99_ms"`
	DecayRatio float64 `json:"loadgen_decay_ratio"`
	Valid      bool    `json:"valid"` // the load generator kept its schedule
	SLO        string  `json:"slo,omitempty"`

	FirstFailure string `json:"first_failure,omitempty"`

	counters   counters
	mailboxMax int
	trace      *traceResult // traced runs only
}

// lagLimit marks an open-loop run invalid: the generator, not the grid,
// set its timing.
const lagLimit = 5 * time.Millisecond

// setupOnce boots a grid for spec and makes one verified call: the time
// from the first rt.Start to that result, less the pause, is one set-up
// sample. pause idles between starting the servers and dialling the
// sessions; see setupPauses.
func setupOnce(ctx context.Context, spec runSpec, plane *obsPlane, pause time.Duration) (*grid, *driver, float64, error) {
	g, first, err := bootGrid(spec.wl.grid, spec.tmpRoot, plane, pause)
	if err != nil {
		return nil, nil, 0, err
	}
	d := &driver{g: g, wl: spec.wl, seed: spec.seed}
	if err := d.firstCall(ctx); err != nil {
		g.close()
		return nil, nil, 0, err
	}
	return g, d, (time.Since(first) - pause).Seconds(), nil
}

// setupPauses spreads n set-ups evenly over one timer period. Whether
// the first result catches the client's first poll or waits a whole
// period for the next is a race between the servers' pull timer and
// the sessions' poll timer, both armed at boot: undithered, set-up
// time reads one of two values 20 ms apart and a run's mean flips
// with the disk's mood. Sweeping the offset between the two timers
// turns the step into a slope.
func setupPauses(seed int64, n int) []time.Duration {
	u := subSeed(seed, streamSetup, 0).Float64()
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + u) / float64(n) * float64(beatPeriod))
	}
	return out
}

// runWorkload boots the grid, warms it up at the workload's own load,
// measures one window and drains.
func runWorkload(ctx context.Context, spec runSpec) (*runResult, error) {
	// Two collections empty the sync.Pools too: in a whole set a workload
	// must not inherit the previous one's buffers in its heap reading.
	runtime.GC()
	runtime.GC()
	pauses := setupPauses(spec.seed, spec.setups+1)
	setups := make([]float64, 0, len(pauses))
	for i := 0; i < spec.setups; i++ {
		g, _, s, err := setupOnce(ctx, spec, nil, pauses[i])
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", spec.wl.name, i, err)
		}
		g.close()
		setups = append(setups, s)
	}

	var plane *obsPlane
	if spec.traced {
		plane = newObsPlane()
	}
	g, d, s, err := setupOnce(ctx, spec, plane, pauses[spec.setups])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.wl.name, err)
	}
	defer g.close()
	setups = append(setups, s)

	d.start = time.Now()
	d.t0 = d.start.Add(spec.warmup)
	d.t1 = d.t0.Add(spec.window)

	// The drain may outlast the window by callTimeout; the helpers below
	// stop with it.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var helpers sync.WaitGroup
	var faultErr error
	if spec.wl.faults {
		evs := faultSchedule(spec.seed, spec.wl.grid.servers, spec.warmup, spec.window)
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			faultErr = runFaults(runCtx, g, d.start, evs)
		}()
	}
	if plane != nil {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			plane.drainLoop(runCtx)
		}()
	}

	res := &runResult{
		Workload: spec.wl.name, Seed: spec.seed, Traced: spec.traced,
		WindowS: spec.window.Seconds(), SetupS: trimmedMean(setups),
	}
	var atStart, atEnd struct {
		cpu      time.Duration
		alloc    uint64 // bytes allocated since the process started
		counters counters
		store    storeCounters
	}
	var book sync.WaitGroup
	book.Add(1)
	go func() { // window bookkeeping, on the wall clock
		defer book.Done()
		if !sleepUntil(ctx, d.t0) {
			return
		}
		atStart.cpu, atStart.alloc = processCPU(), allocatedBytes()
		atStart.counters = g.snapshot()
		atStart.store = plane.storeCounters()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		end := time.NewTimer(time.Until(d.t1))
		defer end.Stop()
	sampling:
		for {
			select {
			case <-tick.C:
				if depth := g.mailboxDepth(); depth > res.mailboxMax {
					res.mailboxMax = depth
				}
			case <-end.C:
				break sampling
			case <-ctx.Done():
				return
			}
		}
		atEnd.cpu, atEnd.alloc = processCPU(), allocatedBytes()
		atEnd.counters = g.snapshot()
		atEnd.store = plane.storeCounters()
	}()

	d.run(ctx)
	book.Wait()
	res.HeapLiveMB = float64(liveHeap()) / (1 << 20)
	cancel()
	helpers.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if faultErr != nil {
		return nil, faultErr
	}

	res.counters = atEnd.counters.sub(atStart.counters)
	summarize(res, d, atEnd.cpu-atStart.cpu, atEnd.alloc-atStart.alloc)
	if plane != nil {
		plane.drain()
		res.trace = plane.analyze(d, atEnd.store.sub(atStart.store), res)
	}
	return res, nil
}

// summarize turns the call records into the end-to-end metrics.
func summarize(res *runResult, d *driver, cpu time.Duration, alloc uint64) {
	window := d.t1.Sub(d.t0)
	var lat, lag []time.Duration
	var done []time.Time
	thirds := [3]int{}
	inFlightAtEnd := 0
	for s := range d.recs {
		for _, r := range d.recs[s] {
			if r.failed == "" && !r.done.Before(d.t0) && r.done.Before(d.t1) {
				res.Completed++
				done = append(done, r.done)
				thirds[int(3*r.done.Sub(d.t0)/window)]++
			}
			if r.due.Before(d.t0) || !r.due.Before(d.t1) {
				continue
			}
			res.Attempted++
			if r.failed != "" {
				res.Failed++
				if res.FirstFailure == "" {
					res.FirstFailure = fmt.Sprintf("session %d seq %d: %s", r.session, r.seq, r.failed)
				}
				continue
			}
			lat = append(lat, r.latency())
			lag = append(lag, r.lag)
			if !r.done.Before(d.t1) {
				inFlightAtEnd++
			}
		}
	}
	res.GoodputCPS = float64(res.Completed) / window.Seconds()
	if res.Attempted > 0 {
		res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	ms := durationsMS(lat)
	res.LatencyN = len(ms)
	res.TailQuantile = tailQuantile(len(ms), 0.99)
	res.CallP50MS = quantile(ms, 0.5)
	res.CallP80MS = quantile(ms, 0.8)
	res.CallP90MS = quantile(ms, 0.9)
	res.CallP99MS = quantile(ms, res.TailQuantile)
	if res.Completed > 0 {
		res.CPUMSPerCall = float64(cpu) / float64(time.Millisecond) / float64(res.Completed)
		res.AllocKBCall = float64(alloc) / 1024 / float64(res.Completed)
	}
	issued := 0
	for s := range d.recs {
		issued += int(d.nextSeq[s])
	}
	res.HeapKBCall = res.HeapLiveMB * 1024 / float64(issued)

	// The longest gap between consecutive completions, the window's
	// edges included: a stall that runs into either edge still counts.
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	prev := d.t0
	var gap time.Duration
	for _, t := range append(done, d.t1) {
		if g := t.Sub(prev); g > gap {
			gap = g
		}
		prev = t
	}
	res.OutageS = gap.Seconds()

	if thirds[0] > 0 {
		res.DecayRatio = float64(thirds[2]) / float64(thirds[0])
	}
	res.Valid = true
	if d.wl.openRate > 0 {
		lagMS := durationsMS(lag)
		res.LagP99MS = quantile(lagMS, tailQuantile(len(lagMS), 0.99))
		res.Valid = res.LagP99MS <= float64(lagLimit)/float64(time.Millisecond)
		// The SLO of an interactive user: tail latency inside 100 ms and
		// no backlog building up (calls still out at the end stay within
		// what the rate times the tail latency explains).
		backlogLimit := int(2*d.wl.openRate*nSessions*res.CallP99MS/1000) + tailSamples
		res.SLO = "met"
		if res.CallP99MS > 100 || inFlightAtEnd > backlogLimit || res.Failed > 0 {
			res.SLO = "missed"
		}
	}
}
