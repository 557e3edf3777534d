package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"rpcv/internal/obs"
	"rpcv/internal/proto"
)

// obsPlane is the traced run's side of the program's existing Obs
// plane: one shared registry, one observer (and span ring) per node,
// and every span drained from the rings so far. A nil *obsPlane is the
// untraced run: it hands out nil observers and reads zeros.
type obsPlane struct {
	reg *obs.Registry

	mu        sync.Mutex
	observers map[proto.NodeID]*obs.Observer
	order     []proto.NodeID
	last      map[proto.NodeID]obs.Span // newest span already drained, per node
	spans     []obs.Span
	lost      int           // ring dumps that no longer held the previous newest span
	retired   storeCounters // coordinator incarnations already closed
}

func newObsPlane() *obsPlane {
	return &obsPlane{
		reg:       obs.NewRegistry(),
		observers: make(map[proto.NodeID]*obs.Observer),
		last:      make(map[proto.NodeID]obs.Span),
	}
}

// observer returns the node's observer, creating it on first use. A
// restarted node keeps its observer, so its span ring survives the
// restart.
func (p *obsPlane) observer(id proto.NodeID) *obs.Observer {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	o, ok := p.observers[id]
	if !ok {
		o = obs.NewWith(id, p.reg)
		p.observers[id] = o
		p.order = append(p.order, id)
	}
	return o
}

// drain copies every ring's new spans into memory. A ring dumps oldest
// first and a node stamps its spans in time order, so the new ones are
// those after the newest span of the previous drain, found by walking
// back from the end; when the ring has wrapped past it the whole dump
// is new and the spans in between are gone (counted in lost).
func (p *obsPlane) drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range p.order {
		dump := p.observers[id].Tracer().Dump()
		if len(dump) == 0 {
			continue
		}
		last, drained := p.last[id]
		from := 0
		if drained {
			i := len(dump) - 1
			for i >= 0 && dump[i] != last && !dump[i].At.Before(last.At) {
				i--
			}
			if i >= 0 && dump[i] == last {
				from = i + 1
			} else {
				p.lost++
			}
		}
		p.spans = append(p.spans, dump[from:]...)
		p.last[id] = dump[len(dump)-1]
	}
}

// drainPeriod keeps a 4096-span ring from wrapping between drains: the
// busiest ring, saturate's coordinator, takes about 15 k spans a second.
const drainPeriod = 100 * time.Millisecond

func (p *obsPlane) drainLoop(ctx context.Context) {
	tick := time.NewTicker(drainPeriod)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			p.drain()
		case <-ctx.Done():
			return
		}
	}
}

// storeCounters are the coordinator WAL's registry counters.
type storeCounters struct{ commits, ops, snapshots float64 }

func (c storeCounters) sub(o storeCounters) storeCounters {
	return storeCounters{c.commits - o.commits, c.ops - o.ops, c.snapshots - o.snapshots}
}

func (c storeCounters) add(o storeCounters) storeCounters {
	return storeCounters{c.commits + o.commits, c.ops + o.ops, c.snapshots + o.snapshots}
}

func (p *obsPlane) liveStoreCounters() storeCounters {
	node := obs.L("node", string(coordID))
	read := func(name string) float64 {
		v, _ := p.reg.Value(name, node)
		return v
	}
	return storeCounters{
		commits:   read("rpcv_store_wal_commits_total"),
		ops:       read("rpcv_store_wal_committed_ops_total"),
		snapshots: read("rpcv_store_wal_snapshots_total"),
	}
}

// storeCounters sums the coordinator's WAL counters over incarnations.
func (p *obsPlane) storeCounters() storeCounters {
	if p == nil {
		return storeCounters{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retired.add(p.liveStoreCounters())
}

// retireNode banks the WAL counters of a coordinator about to close:
// its successor re-registers the same series starting from zero.
func (p *obsPlane) retireNode(id proto.NodeID) {
	if p == nil || id != coordID {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.retired = p.retired.add(p.liveStoreCounters())
}

// The five stages a call's submit->ack span is cut into, in order.
var stageNames = [5]string{
	"submit_to_enqueue", "enqueue_to_dispatch", "dispatch_to_exec",
	"exec_to_result", "result_to_ack",
}

// stageCut is one call's span boundaries: submit, enqueue, dispatch,
// exec, result, ack.
type stageCut [6]time.Time

// stages returns the five intervals; they telescope to ack-submit.
func (c stageCut) stages() [5]time.Duration {
	var out [5]time.Duration
	for i := range out {
		out[i] = c[i+1].Sub(c[i])
	}
	return out
}

// cutTimeline finds the boundaries of the execution that produced the
// call's result: the first submit, enqueue, result and ack, the last
// exec at or before the result and the last dispatch at or before that
// exec (a requeued call dispatches and may execute more than once; the
// time lost to the dead instances lands in enqueue_to_dispatch). ok is
// false when a boundary is missing or out of order.
func cutTimeline(tl obs.Timeline) (cut stageCut, ok bool) {
	first := func(s obs.Stage) time.Time {
		sp, _ := tl.Stage(s)
		return sp.At
	}
	lastBefore := func(s obs.Stage, limit time.Time) time.Time {
		var at time.Time
		for _, sp := range tl.Spans {
			if sp.Stage == s && !sp.At.After(limit) {
				at = sp.At
			}
		}
		return at
	}
	cut[0], cut[1] = first(obs.StageSubmit), first(obs.StageEnqueue)
	cut[4], cut[5] = first(obs.StageResult), first(obs.StageAck)
	cut[3] = lastBefore(obs.StageExec, cut[4])
	cut[2] = lastBefore(obs.StageDispatch, cut[3])
	for i, t := range cut {
		if t.IsZero() || (i > 0 && t.Before(cut[i-1])) {
			return cut, false
		}
	}
	return cut, true
}

// traceResult is what the traced run adds to a runResult.
type traceResult struct {
	stageP50, stageP99 [5]float64 // ms, in stageNames order
	unattributedP50    float64    // ms: bench latency minus submit->ack
	spanSumP50         float64    // ms: median of (sum of stages + unattributed)
	missingFrac        float64
	store              storeCounters
	writeWaitP50US     float64
	writeWaitP99US     float64
	msgsPerFlushP50    float64
	timelines          []obs.Timeline
}

// analyze joins the drained spans into per-call timelines and reads the
// registry. Only verified calls due inside the window count.
func (p *obsPlane) analyze(d *driver, store storeCounters, res *runResult) *traceResult {
	p.mu.Lock()
	timelines := obs.Assemble(p.spans)
	if p.lost > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: a span ring wrapped between drains %d times; see trace.spans_missing_frac\n", res.Workload, p.lost)
	}
	p.mu.Unlock()
	byCall := make(map[proto.CallID]obs.Timeline, len(timelines))
	for _, tl := range timelines {
		byCall[tl.Call] = tl
	}

	tr := &traceResult{store: store, timelines: timelines}
	var stageMS [5][]float64
	var unattributed, sums []float64
	calls, missing := 0, 0
	for s := range d.recs {
		user, session := sessionIdent(s)
		for _, r := range d.recs[s] {
			if r.failed != "" || r.due.Before(d.t0) || !r.due.Before(d.t1) {
				continue
			}
			calls++
			id := proto.CallID{User: proto.UserID(user), Session: proto.SessionID(session), Seq: proto.RPCSeq(r.seq)}
			cut, ok := cutTimeline(byCall[id])
			if !ok {
				missing++
				continue
			}
			var sum time.Duration
			for i, st := range cut.stages() {
				sum += st
				stageMS[i] = append(stageMS[i], float64(st)/float64(time.Millisecond))
			}
			rest := r.latency() - sum
			unattributed = append(unattributed, float64(rest)/float64(time.Millisecond))
			sums = append(sums, float64(sum+rest)/float64(time.Millisecond))
		}
	}
	if calls > 0 {
		tr.missingFrac = float64(missing) / float64(calls)
	}
	for i := range stageMS {
		sort.Float64s(stageMS[i])
		tr.stageP50[i] = quantile(stageMS[i], 0.5)
		tr.stageP99[i] = quantile(stageMS[i], tailQuantile(len(stageMS[i]), 0.99))
	}
	tr.unattributedP50 = median(unattributed)
	tr.spanSumP50 = median(sums)

	node := obs.L("node", string(coordID))
	ww := p.reg.Histogram("rpcv_store_write_latency_ns", node).Snapshot()
	tr.writeWaitP50US, tr.writeWaitP99US = ww.P50/1e3, ww.P99/1e3
	tr.msgsPerFlushP50 = p.reg.Histogram("rpcv_transport_batch_msgs", node).Snapshot().P50
	return tr
}
