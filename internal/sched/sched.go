// Package sched is the coordinator's scheduling subsystem.
//
// The paper's coordinator schedules strictly first-come-first-served
// and only re-issues a task after a heartbeat suspicion, so one slow or
// silently degraded volatile server stalls a whole batch — the
// straggler regime of the figure-7 fault evaluation. This package
// factors the scheduling decision out of the coordinator into an
// Engine that the coordinator delegates every queue operation to, and
// makes the decision a Policy chosen by name:
//
//   - "fcfs" reproduces the paper's behaviour exactly (default);
//   - "fastest-first" is matchmaking on per-server speed estimates: an
//     exponentially weighted moving average of observed-vs-expected
//     completion times classifies servers, and when the pending queue
//     shrinks to its tail, work is withheld from servers much slower
//     than the best one so the final tasks land on fast machines;
//   - "deadline" orders the queue earliest-deadline-first over the
//     soft per-call deadlines carried by proto.Submit (calls without a
//     deadline keep FCFS order behind all deadlined ones);
//   - "speculative" keeps FCFS order but flags stragglers: when a
//     task's in-flight time exceeds speculateFactor times the engine's
//     completion estimate, the coordinator queues a redundant instance
//     for a *different* server; the first result wins and the loser is
//     cancelled. Deduplication is the store's CallID keying, which
//     already survives replication, shard sync and failover.
//
// The four policies are a fixed table (Policies lists it). All methods
// are event-loop only, like the coordinator that owns the engine.
package sched

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"rpcv/internal/obs"
	"rpcv/internal/proto"
)

// Config parameterizes an Engine.
type Config struct {
	// Policy is one of Policies(). Empty means "fcfs".
	Policy string

	// Obs, when non-nil, receives scheduling gauges labeled
	// node="<Node>": rpcv_sched_queue_depth, rpcv_sched_spec_queue_depth
	// and per-server rpcv_sched_server_slowdown (EWMA factor, 1 =
	// nominal). Gauge writes are atomic stores on paths the engine
	// already walks; nil costs nothing.
	Obs *obs.Registry
	// Node labels this engine's gauges — the owning coordinator's ID.
	Node proto.NodeID
}

const (
	// speculateFactor is the straggler threshold k of the speculative
	// policy: a task is duplicated when its in-flight time exceeds
	// k x max(expected execution time, observed mean completion).
	speculateFactor = 2

	// speculateMin floors the speculation threshold so sub-second tasks
	// are not duplicated on scheduling jitter.
	speculateMin = 2 * time.Second

	// fastFactor classifies servers: one whose slowdown estimate is
	// within fastFactor x the best server's counts as fast and is
	// always admitted; slower ones face the matchmaking gate (and are
	// never handed speculative duplicates).
	fastFactor = 2

	// starveAfter bounds how long the admission gate may park the
	// whole queue: when no task has been handed out for this long
	// while the head keeps waiting, the gate is bypassed and whoever
	// asks is served — wrong speed estimates must not stall the batch.
	// (A queue that is draining through fast servers is not starving,
	// however old its head.)
	starveAfter = time.Minute

	// alpha is the estimator's EWMA smoothing factor.
	alpha = 0.3
)

// Policy decides queue order, admission and speculation for an Engine.
// Every implementation is stateless, so engines share one value.
type Policy interface {
	// Less orders the pending queue; the engine breaks ties by arrival
	// sequence, so returning always-false yields pure FCFS.
	Less(a, b *Task) bool
	// Admit reports whether server may receive the queue head now.
	Admit(e *Engine, server proto.NodeID, now time.Time) bool
	// Speculative reports whether the coordinator should duplicate
	// straggling in-flight tasks.
	Speculative() bool
	// WantsEstimates reports whether the policy consumes the speed
	// estimator; when false the coordinator skips the periodic
	// in-flight sweep that feeds lateness observations.
	WantsEstimates() bool
}

// Task is one pending entry's scheduling metadata.
type Task struct {
	Call     proto.CallID
	Exec     time.Duration // expected execution time hint (0 unknown)
	Deadline time.Time     // soft completion deadline (zero: none)
	Enqueued time.Time

	seq   uint64 // arrival order, the universal tie-break
	index int    // heap position
}

// policies is every policy by name.
var policies = map[string]Policy{
	"fcfs":          fcfs{},
	"fastest-first": fastestFirst{},
	"deadline":      edf{},
	"speculative":   speculative{},
}

// Policies returns the policy names, sorted.
func Policies() []string {
	out := make([]string, 0, len(policies))
	for name := range policies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

// Engine is the scheduling state the coordinator delegates to: the
// pending queue (policy-ordered), the speculative-duplicate queue and
// the per-server speed estimator.
//
// A queued call allocates no entry of its own once the queue has been
// as deep: an entry that leaves the heap — popped for a server, or
// skipped at pop time as stale — goes on a free list, and Enqueue takes
// its entry from there. Only an entry out of the heap is reused: Pop
// tells a live entry from a stale copy of it by pointer, so an entry
// must not be handed out again while a stale copy may still be queued.
type Engine struct {
	cfg    Config
	policy Policy

	pending pendingHeap
	queued  map[proto.CallID]*Task // live pending entries by call
	free    []*Task                // entries out of the heap, for reuse

	// spec is the FIFO of speculative duplicates awaiting a server
	// other than the one running the original instance.
	spec   []specEntry
	inSpec map[proto.CallID]bool

	est estimator
	// slots is each server's last-advertised concurrent capacity
	// (in-flight + free), from the heartbeat stream; unseen servers
	// count as 1. The admission gate weighs pool throughput with it.
	slots map[proto.NodeID]int
	seq   uint64
	// lastPop is the last time any pending entry was handed out; the
	// starvation bypass compares against it, so a queue that keeps
	// flowing through fast servers never counts as starving.
	lastPop time.Time

	// Observability gauges (nil-safe no-ops when Config.Obs is nil).
	gQueue      *obs.Gauge
	gSpec       *obs.Gauge
	speedGauges map[proto.NodeID]*obs.Gauge
}

type specEntry struct {
	call    proto.CallID
	exclude proto.NodeID
}

// New builds an engine for the configured policy; unknown policy names
// are an error (the caller decides whether to fall back to FCFS).
func New(cfg Config) (*Engine, error) {
	if cfg.Policy == "" {
		cfg.Policy = "fcfs"
	}
	policy, ok := policies[cfg.Policy]
	if !ok {
		return nil, fmt.Errorf("sched: unknown policy %q (have %v)", cfg.Policy, Policies())
	}
	e := &Engine{
		cfg:    cfg,
		policy: policy,
		queued: make(map[proto.CallID]*Task),
		inSpec: make(map[proto.CallID]bool),
		est:    estimator{factor: make(map[proto.NodeID]float64)},
		slots:  make(map[proto.NodeID]int),
	}
	e.pending.engine = e
	if cfg.Obs != nil {
		nl := obs.L("node", string(cfg.Node))
		e.gQueue = cfg.Obs.Gauge("rpcv_sched_queue_depth", nl)
		e.gSpec = cfg.Obs.Gauge("rpcv_sched_spec_queue_depth", nl)
		e.speedGauges = make(map[proto.NodeID]*obs.Gauge)
	}
	return e, nil
}

// noteDepths refreshes the queue-depth gauges after any queue change.
func (e *Engine) noteDepths() {
	e.gQueue.SetInt(len(e.queued))
	e.gSpec.SetInt(len(e.inSpec))
}

// speedGauge lazily registers the per-server slowdown gauge.
func (e *Engine) speedGauge(server proto.NodeID) *obs.Gauge {
	if e.speedGauges == nil {
		return nil
	}
	g, ok := e.speedGauges[server]
	if !ok {
		g = e.cfg.Obs.Gauge("rpcv_sched_server_slowdown",
			obs.L("node", string(e.cfg.Node)), obs.L("server", string(server)))
		e.speedGauges[server] = g
	}
	return g
}

// noteSpeed publishes the server's current slowdown estimate.
func (e *Engine) noteSpeed(server proto.NodeID) {
	if e.speedGauges == nil {
		return
	}
	f, ok := e.est.factorOf(server)
	if !ok {
		f = 0 // no estimate (forgotten or never observed)
	}
	e.speedGauge(server).Set(f)
}

// PolicyName returns the active policy's name.
func (e *Engine) PolicyName() string { return e.cfg.Policy }

// Speculative reports whether the active policy duplicates stragglers.
func (e *Engine) Speculative() bool { return e.policy.Speculative() }

// Len returns the number of live pending entries (excluding duplicates).
func (e *Engine) Len() int { return len(e.queued) }

// Queued reports whether the call has a live pending or speculative
// entry.
func (e *Engine) Queued(call proto.CallID) bool {
	_, p := e.queued[call]
	return p || e.inSpec[call]
}

// Enqueue adds one pending call with its scheduling metadata. It
// returns false when the call is already queued (the single duplicate
// check every insertion path funnels through).
func (e *Engine) Enqueue(call proto.CallID, exec time.Duration, deadline time.Time, now time.Time) bool {
	if _, dup := e.queued[call]; dup {
		return false
	}
	e.seq++
	var t *Task
	if n := len(e.free); n > 0 {
		t, e.free = e.free[n-1], e.free[:n-1]
	} else {
		t = new(Task)
	}
	*t = Task{Call: call, Exec: exec, Deadline: deadline, Enqueued: now, seq: e.seq}
	e.queued[call] = t
	heap.Push(&e.pending, t)
	e.noteDepths()
	return true
}

// Unqueue drops any pending or speculative entry for the call. Heap
// removal is lazy: stale entries are skipped at pop time.
func (e *Engine) Unqueue(call proto.CallID) {
	delete(e.queued, call)
	delete(e.inSpec, call)
	e.noteDepths()
}

// EnqueueSpec queues a speculative duplicate of an in-flight call,
// excluding the server already executing it. Returns false when a
// duplicate is already queued (or the call is pending anyway).
func (e *Engine) EnqueueSpec(call proto.CallID, exclude proto.NodeID) bool {
	if e.inSpec[call] {
		return false
	}
	if _, p := e.queued[call]; p {
		return false
	}
	e.inSpec[call] = true
	e.spec = append(e.spec, specEntry{call: call, exclude: exclude})
	e.noteDepths()
	return true
}

// Pop selects the next task for server: speculative duplicates first
// (any server except the one running the original), then the
// policy-ordered pending queue behind the admission gate. spec reports
// which kind was returned; ok is false when nothing is eligible.
func (e *Engine) Pop(server proto.NodeID, now time.Time) (call proto.CallID, spec, ok bool) {
	for i := 0; i < len(e.spec); i++ {
		entry := e.spec[i]
		if !e.inSpec[entry.call] { // unqueued since; drop lazily
			e.spec = append(e.spec[:i], e.spec[i+1:]...)
			i--
			continue
		}
		if entry.exclude == server {
			continue
		}
		if f, ok := e.est.factorOf(server); ok && f > fastFactor*e.est.best() {
			// A duplicate exists to outrun a straggler; handing it to
			// another slow machine defeats the point.
			continue
		}
		e.spec = append(e.spec[:i], e.spec[i+1:]...)
		delete(e.inSpec, entry.call)
		e.noteDepths()
		return entry.call, true, true
	}
	for e.pending.Len() > 0 {
		head := e.pending.tasks[0]
		if e.queued[head.Call] != head { // unqueued or re-enqueued since
			e.release(heap.Pop(&e.pending).(*Task))
			continue
		}
		if !e.policy.Admit(e, server, now) && !e.starving(head, now) {
			return proto.CallID{}, false, false
		}
		heap.Pop(&e.pending)
		call := head.Call
		delete(e.queued, call)
		e.lastPop = now
		e.noteDepths()
		e.release(head)
		return call, false, true
	}
	return proto.CallID{}, false, false
}

// release puts an entry that has left the heap on the free list.
func (e *Engine) release(t *Task) {
	*t = Task{}
	e.free = append(e.free, t)
}

// starving reports whether the admission gate has parked the queue:
// the head has waited past starveAfter and nothing was handed out in
// that long either. Then the gate yields to whoever asks.
func (e *Engine) starving(head *Task, now time.Time) bool {
	if now.Sub(head.Enqueued) < starveAfter {
		return false
	}
	return e.lastPop.IsZero() || now.Sub(e.lastPop) >= starveAfter
}

// ObserveCompletion feeds one finished execution into the estimator:
// expected is the task's execution-time hint (0 when unknown), actual
// the observed assignment-to-result duration on server.
func (e *Engine) ObserveCompletion(server proto.NodeID, expected, actual time.Duration) {
	e.est.observe(server, expected, actual)
	e.noteSpeed(server)
}

// NoteSlots records a server's advertised concurrent task capacity
// (its in-flight count plus the free capacity its heartbeat offered).
func (e *Engine) NoteSlots(server proto.NodeID, n int) {
	if n < 1 {
		n = 1
	}
	e.slots[server] = n
}

// ForgetServer drops a server's speed estimate and capacity: a
// suspected or departed machine must stop counting as drain capacity
// in the admission gate, or dead servers would keep gating live slow
// ones. A returning server re-earns its estimate.
func (e *Engine) ForgetServer(server proto.NodeID) {
	delete(e.est.factor, server)
	delete(e.slots, server)
	e.noteSpeed(server)
}

// NeedsSweep reports whether the coordinator should run the periodic
// in-flight sweep (lateness feed and, for speculative policies,
// straggler duplication) for the active policy.
func (e *Engine) NeedsSweep() bool {
	return e.policy.WantsEstimates() || e.policy.Speculative()
}

// ObserveLateness feeds an in-flight assignment's age into the
// estimator: a task already running past its expected duration is a
// lower bound on the server's slowdown, visible long before (or even
// without) a completion — a silently degraded volatile node may never
// complete anything, yet must still be classified.
func (e *Engine) ObserveLateness(server proto.NodeID, expected, age time.Duration) {
	e.est.observeLate(server, expected, age)
	e.noteSpeed(server)
}

// ServerFactor returns the server's estimated slowdown factor (1 =
// nominal) and whether any completion has been observed for it.
func (e *Engine) ServerFactor(server proto.NodeID) (float64, bool) {
	return e.est.factorOf(server)
}

// KnownServers returns how many servers the estimator has observed.
func (e *Engine) KnownServers() int { return len(e.est.factor) }

// SpeculateThreshold returns the in-flight duration beyond which a
// task with the given execution hint counts as a straggler.
func (e *Engine) SpeculateThreshold(exec time.Duration) time.Duration {
	base := exec
	if e.est.mean > base {
		base = e.est.mean
	}
	if base < speculateMin {
		base = speculateMin
	}
	return time.Duration(speculateFactor * float64(base))
}

// ---------------------------------------------------------------------
// Pending heap
// ---------------------------------------------------------------------

type pendingHeap struct {
	tasks  []*Task
	engine *Engine
}

func (h *pendingHeap) Len() int { return len(h.tasks) }
func (h *pendingHeap) Less(i, j int) bool {
	a, b := h.tasks[i], h.tasks[j]
	if h.engine.policy.Less(a, b) {
		return true
	}
	if h.engine.policy.Less(b, a) {
		return false
	}
	return a.seq < b.seq
}
func (h *pendingHeap) Swap(i, j int) {
	h.tasks[i], h.tasks[j] = h.tasks[j], h.tasks[i]
	h.tasks[i].index = i
	h.tasks[j].index = j
}
func (h *pendingHeap) Push(x any) {
	t := x.(*Task)
	t.index = len(h.tasks)
	h.tasks = append(h.tasks, t)
}
func (h *pendingHeap) Pop() any {
	old := h.tasks
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	h.tasks = old[:n-1]
	return t
}

// ---------------------------------------------------------------------
// Estimator
// ---------------------------------------------------------------------

// estimator keeps per-server slowdown factors (EWMA of actual/expected
// completion time) and a global completion-time mean. A factor of 1 is
// nominal speed; a machine 10x slower than its tasks' hints converges
// to ~10.
type estimator struct {
	factor map[proto.NodeID]float64
	mean   time.Duration
}

func (e *estimator) observe(server proto.NodeID, expected, actual time.Duration) {
	if actual <= 0 {
		return
	}
	if e.mean == 0 {
		e.mean = actual
	} else {
		e.mean = time.Duration((1-alpha)*float64(e.mean) + alpha*float64(actual))
	}
	ref := expected
	if ref <= 0 {
		ref = e.mean
	}
	if ref <= 0 {
		return
	}
	ratio := float64(actual) / float64(ref)
	if old, ok := e.factor[server]; ok {
		e.factor[server] = (1-alpha)*old + alpha*ratio
	} else {
		e.factor[server] = ratio
	}
}

// observeLate raises a server's factor to at least age/expected for a
// task still in flight: a lower bound on the true slowdown, replaced
// by the completion EWMA once results arrive.
func (e *estimator) observeLate(server proto.NodeID, expected, age time.Duration) {
	if expected <= 0 {
		expected = e.mean
	}
	if expected <= 0 {
		return
	}
	ratio := float64(age) / float64(expected)
	if ratio <= 1 {
		return
	}
	if old, ok := e.factor[server]; !ok || ratio > old {
		e.factor[server] = ratio
	}
}

func (e *estimator) factorOf(server proto.NodeID) (float64, bool) {
	f, ok := e.factor[server]
	return f, ok
}

// best returns the smallest known slowdown factor (1 when none).
func (e *estimator) best() float64 {
	best := 0.0
	for _, f := range e.factor {
		if best == 0 || f < best {
			best = f
		}
	}
	if best == 0 {
		return 1
	}
	return best
}

// ---------------------------------------------------------------------
// Built-in policies
// ---------------------------------------------------------------------

// fcfs is the paper's strict arrival-order scheduling.
type fcfs struct{}

func (fcfs) Less(a, b *Task) bool                        { return false }
func (fcfs) Admit(*Engine, proto.NodeID, time.Time) bool { return true }
func (fcfs) Speculative() bool                           { return false }
func (fcfs) WantsEstimates() bool                        { return false }

// fastestFirst keeps FCFS order but matchmakes on the speed
// estimates: a slow machine is only given work while the pending
// queue is long enough that the rest of the pool could not drain it
// before that machine would finish even one task. Slow machines thus
// contribute early in a long batch but never capture the
// makespan-critical tail.
type fastestFirst struct{}

func (fastestFirst) Less(a, b *Task) bool { return false }
func (fastestFirst) Speculative() bool    { return false }
func (fastestFirst) WantsEstimates() bool { return true }

func (fastestFirst) Admit(e *Engine, server proto.NodeID, _ time.Time) bool {
	f, ok := e.ServerFactor(server)
	if !ok {
		return true // unseen server: let it prove itself
	}
	if f <= fastFactor*e.est.best() {
		return true // fast enough: always admitted
	}
	// While this f-times-slow machine executes one task, server i
	// (slots_i concurrent slots, slowdown f_i) retires about
	// slots_i x f/f_i tasks. Admit the slow machine only when the
	// queue is longer than what the rest of the pool would drain in
	// that time — otherwise the task it takes would outlive the batch.
	drained := 0.0
	for id, fi := range e.est.factor {
		if id == server {
			continue
		}
		slots := e.slots[id]
		if slots < 1 {
			slots = 1
		}
		drained += f * float64(slots) / fi
	}
	return float64(e.Len()) >= drained
}

// edf orders the queue earliest-deadline-first; calls without a
// deadline queue FCFS behind every deadlined one.
type edf struct{}

func (edf) Less(a, b *Task) bool {
	switch {
	case a.Deadline.IsZero() && b.Deadline.IsZero():
		return false
	case a.Deadline.IsZero():
		return false
	case b.Deadline.IsZero():
		return true
	default:
		return a.Deadline.Before(b.Deadline)
	}
}
func (edf) Admit(*Engine, proto.NodeID, time.Time) bool { return true }
func (edf) Speculative() bool                           { return false }
func (edf) WantsEstimates() bool                        { return false }

// speculative keeps FCFS order and asks the coordinator to duplicate
// straggling in-flight tasks onto different servers. It borrows
// fastest-first's admission gate: now that cancellation frees a
// straggler's slot immediately, handing that known-slow machine fresh
// tail work would just create the next straggler to rescue.
type speculative struct{ fastestFirst }

func (speculative) Speculative() bool { return true }
