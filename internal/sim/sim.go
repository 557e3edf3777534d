// Package sim is a deterministic discrete-event simulator for RPC-V.
//
// Every experiment in the paper involves wall-clock phenomena measured
// in seconds to tens of minutes (5 s heartbeats, 30 s suspicion
// timeouts, 60 s replication periods, 10 s tasks, 1000-task Internet
// runs). Re-running them in real time would be slow and irreproducible,
// which is exactly why the authors moved to a confined cluster; we go
// one step further and make the environment fully virtual: a single
// event loop advances a virtual clock, the network model charges
// bandwidth and latency, and fault injection is exact to the
// microsecond. The same protocol handlers also run on the real TCP
// runtime (internal/rt).
//
// The simulator is single-threaded and deterministic: two runs with the
// same seed and the same scenario produce identical traces.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/proto"
)

// Epoch is the virtual time at which every simulation starts.
var Epoch = time.Unix(1_000_000_000, 0).UTC()

// Network models message transfer between nodes. Implementations live
// in internal/netmodel; the interface is defined here so the simulator
// does not depend on any particular model.
//
// Transfer is called once per message in event order. It returns the
// virtual delivery time and whether the message is delivered at all
// (false models loss, partitions and hidden links). Implementations may
// keep per-link queue state; the simulator guarantees single-threaded,
// time-ordered calls.
type Network interface {
	Transfer(from, to proto.NodeID, size int, now time.Time) (deliverAt time.Time, ok bool)
}

// TraceFunc receives simulator trace lines when installed.
type TraceFunc func(now time.Time, nodeID proto.NodeID, line string)

// Config parameterizes a World.
type Config struct {
	// Seed drives all randomness in the simulation (node RNGs and the
	// world RNG). The zero seed is replaced by 1.
	Seed int64
	// Net is the network model. nil means instantaneous, lossless
	// delivery (useful in unit tests).
	Net Network
	// Trace, when non-nil, receives Env.Logf output and lifecycle events.
	Trace TraceFunc
}

// World is the simulation universe: virtual clock, event queue, nodes
// and network.
type World struct {
	now   time.Time
	seq   uint64
	queue eventQueue
	nodes map[proto.NodeID]*simNode
	order []proto.NodeID // registration order, for deterministic iteration
	net   Network
	trace TraceFunc
	rng   *rand.Rand

	delivered uint64 // messages delivered, for stats
	dropped   uint64 // messages lost (network or dead destination)
}

// NewWorld creates an empty world at Epoch.
func NewWorld(cfg Config) *World {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &World{
		now:   Epoch,
		nodes: make(map[proto.NodeID]*simNode),
		net:   cfg.Net,
		trace: cfg.Trace,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (w *World) Now() time.Time { return w.now }

// Elapsed returns the virtual time elapsed since Epoch.
func (w *World) Elapsed() time.Duration { return w.now.Sub(Epoch) }

// Stats returns the count of delivered and dropped messages so far.
func (w *World) Stats() (delivered, dropped uint64) { return w.delivered, w.dropped }

// simNode is the per-node bookkeeping: handler, liveness, incarnation
// counter (timers from a previous incarnation must not fire into a new
// one) and the persistent disk.
type simNode struct {
	id          proto.NodeID
	handler     node.Handler
	up          bool
	incarnation uint64
	disk        *MemDisk
	envDisk     node.Disk // disk as handlers see it (checkDisk)
	rng         *rand.Rand
	env         *simEnv
}

// AddNode registers a node with its protocol handler. The node is
// created down; call Start to boot it. Adding a duplicate ID panics:
// it is always a harness bug.
func (w *World) AddNode(id proto.NodeID, h node.Handler) {
	if _, dup := w.nodes[id]; dup {
		panic(fmt.Sprintf("sim: duplicate node %q", id))
	}
	n := &simNode{
		id:      id,
		handler: h,
		disk:    NewMemDisk(),
		rng:     rand.New(rand.NewSource(w.rng.Int63())),
	}
	n.envDisk = checkDisk(n.disk)
	w.nodes[id] = n
	w.order = append(w.order, id)
}

// Start boots a down node, invoking its handler's Start with a fresh
// environment. Starting an up node is a no-op.
func (w *World) Start(id proto.NodeID) {
	n := w.mustNode(id)
	if n.up {
		return
	}
	n.up = true
	n.incarnation++
	n.env = &simEnv{world: w, node: n, incarnation: n.incarnation}
	w.tracef(id, "start (incarnation %d)", n.incarnation)
	n.handler.Start(n.env)
}

// Crash kills a node abruptly, as the paper's fault generator does:
// pending timers die with the incarnation, in-flight messages to the
// node are dropped on delivery, volatile state is lost; the disk
// survives.
func (w *World) Crash(id proto.NodeID) {
	n := w.mustNode(id)
	if !n.up {
		return
	}
	n.up = false
	w.tracef(id, "crash")
	n.handler.Stop()
}

// Restart crashes (if needed) and immediately boots a node again. The
// handler's Start sees the disk contents of the previous incarnation,
// modelling a node restarting from its last local state.
func (w *World) Restart(id proto.NodeID) {
	n := w.mustNode(id)
	if n.up {
		w.Crash(id)
	}
	w.Start(id)
}

// IsUp reports whether the node is currently running.
func (w *World) IsUp(id proto.NodeID) bool { return w.mustNode(id).up }

// Disk exposes a node's persistent store to the test harness.
func (w *World) Disk(id proto.NodeID) *MemDisk { return w.mustNode(id).disk }

// WipeDisk erases a node's persistent store, modelling a machine whose
// local disk was lost (or a user restarting the client application on a
// different host). Wipe while the node is down, then Start it.
func (w *World) WipeDisk(id proto.NodeID) {
	n := w.mustNode(id)
	// A running node keeps its in-memory state; only future reads see
	// the empty disk. Callers normally wipe crashed nodes.
	n.disk = NewMemDisk()
	n.envDisk = checkDisk(n.disk)
}

// Nodes returns all registered node IDs in registration order.
func (w *World) Nodes() []proto.NodeID {
	return append([]proto.NodeID(nil), w.order...)
}

func (w *World) mustNode(id proto.NodeID) *simNode {
	n, ok := w.nodes[id]
	if !ok {
		panic(fmt.Sprintf("sim: unknown node %q", id))
	}
	return n
}

// Schedule runs fn on the event loop after d, independent of any node.
// It is the hook used by fault generators and experiment scripts.
func (w *World) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	w.push(w.now.Add(d), fn)
}

// ScheduleAt runs fn at absolute virtual time at (or now, if past).
func (w *World) ScheduleAt(at time.Time, fn func()) {
	if at.Before(w.now) {
		at = w.now
	}
	w.push(at, fn)
}

// Rand returns the world-level random source (used by scenario scripts;
// nodes get their own).
func (w *World) Rand() *rand.Rand { return w.rng }

// Step executes the next pending event, advancing the clock to its
// timestamp. It returns false when the queue is empty.
func (w *World) Step() bool {
	if w.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&w.queue).(*event)
	if ev.at.After(w.now) {
		w.now = ev.at
	}
	ev.fn()
	return true
}

// Run executes events until the queue is empty or the virtual clock
// passes deadline. It returns the number of events executed.
func (w *World) Run(deadline time.Time) int {
	steps := 0
	for w.queue.Len() > 0 {
		if next := w.queue.peek(); next.After(deadline) {
			w.now = deadline
			return steps
		}
		w.Step()
		steps++
	}
	if w.now.Before(deadline) {
		w.now = deadline
	}
	return steps
}

// RunFor executes events for d of virtual time.
func (w *World) RunFor(d time.Duration) int { return w.Run(w.now.Add(d)) }

// RunUntil executes events until cond returns true or the virtual clock
// passes deadline. It reports whether cond was satisfied. cond is
// checked after every event.
func (w *World) RunUntil(cond func() bool, deadline time.Time) bool {
	if cond() {
		return true
	}
	for w.queue.Len() > 0 && !w.queue.peek().After(deadline) {
		w.Step()
		if cond() {
			return true
		}
	}
	if w.now.Before(deadline) {
		w.now = deadline
	}
	return cond()
}

func (w *World) push(at time.Time, fn func()) {
	w.seq++
	heap.Push(&w.queue, &event{at: at, seq: w.seq, fn: fn})
}

func (w *World) tracef(id proto.NodeID, format string, args ...any) {
	if w.trace != nil {
		w.trace(w.now, id, fmt.Sprintf(format, args...))
	}
}

// deliver routes one message to its destination node, applying the
// liveness check at delivery time: messages to a dead node vanish, as
// on a connection-less best-effort network.
func (w *World) deliver(from, to proto.NodeID, msg proto.Message) {
	n, ok := w.nodes[to]
	if !ok || !n.up {
		w.dropped++
		return
	}
	w.delivered++
	n.handler.Receive(from, msg)
}

// ---------------------------------------------------------------------
// Per-node environment
// ---------------------------------------------------------------------

type simEnv struct {
	world       *World
	node        *simNode
	incarnation uint64
}

var _ node.Env = (*simEnv)(nil)

func (e *simEnv) Self() proto.NodeID { return e.node.id }
func (e *simEnv) Now() time.Time     { return e.world.now }
func (e *simEnv) Rand() *rand.Rand   { return e.node.rng }
func (e *simEnv) Disk() node.Disk    { return e.node.envDisk }

func (e *simEnv) Logf(format string, args ...any) {
	e.world.tracef(e.node.id, format, args...)
}

// After schedules fn bound to this incarnation: if the node crashes or
// restarts before the timer fires, the callback is silently dropped.
func (e *simEnv) After(d time.Duration, fn func()) node.Timer {
	t := &simTimer{}
	e.world.Schedule(d, func() {
		if t.stopped || !e.live() {
			return
		}
		fn()
	})
	return t
}

func (e *simEnv) live() bool {
	return e.node.up && e.node.incarnation == e.incarnation
}

// Send hands the message to the network model and schedules delivery.
// A nil network delivers instantly (still asynchronously, through the
// event queue, so handlers never re-enter).
func (e *simEnv) Send(to proto.NodeID, msg proto.Message) {
	w := e.world
	from := e.node.id
	if !e.live() {
		// A handler may race its own crash within one event; a dead
		// sender's packets never reach the wire.
		return
	}
	at, ok := w.now, true
	if w.net != nil {
		at, ok = w.net.Transfer(from, to, msg.WireSize(), w.now)
	}
	if !ok {
		w.dropped++
		return
	}
	w.ScheduleAt(at, func() { w.deliver(from, to, msg) })
}

type simTimer struct{ stopped bool }

func (t *simTimer) Stop() { t.stopped = true }

// ---------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------

type event struct {
	at  time.Time
	seq uint64 // tie-break: FIFO among simultaneous events
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
func (q eventQueue) peek() time.Time { return q[0].at }

// ---------------------------------------------------------------------
// In-memory persistent disk
// ---------------------------------------------------------------------

// MemDisk is the simulator's node-local stable store. It survives
// crashes and restarts of its node (the simulator keeps it across
// incarnations), modelling the local disk that message logs and result
// archives are written to. It has no cost model (the layers above
// charge disk latency) and, per the node.Disk ownership contract, no
// copies: it keeps the slices it is handed and hands them back.
type MemDisk struct {
	data map[string][]byte
}

var _ node.Disk = (*MemDisk)(nil)

// NewMemDisk returns an empty store.
func NewMemDisk() *MemDisk { return &MemDisk{data: make(map[string][]byte)} }

// Write implements node.Disk.
func (d *MemDisk) Write(key string, value []byte) error {
	d.data[key] = value
	return nil
}

// Read implements node.Disk.
func (d *MemDisk) Read(key string) ([]byte, bool) {
	v, ok := d.data[key]
	return v, ok
}

// Delete implements node.Disk.
func (d *MemDisk) Delete(key string) error {
	delete(d.data, key)
	return nil
}

// Keys implements node.Disk.
func (d *MemDisk) Keys(prefix string) []string {
	var keys []string
	for k := range d.data {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of stored keys (test helper).
func (d *MemDisk) Len() int { return len(d.data) }
