// Package rt is the real-time runtime: it hosts the same protocol
// handlers that run in the simulator (client, coordinator, server) on a
// real machine, with TCP sockets, the wall clock and a durable store
// (internal/store): the group-commit WAL when Config.DiskDir names a
// directory, the volatile in-memory store when it does not. The cmd/
// daemons and the quickstart example are built on it.
//
// The transport pools connections (see transport.go): each peer gets
// one long-lived connection owned by a sender goroutine with a bounded
// send queue, and queued envelopes are coalesced into a single flush.
// Semantically it is still the paper's best-effort, connection-less
// channel: sends never block, overflow and broken connections silently
// drop messages, and connection breaks are never used as fault signals
// — only heartbeat timeouts are. A quiet peer's connection closes after
// Config.IdleTimeout, returning it to the paper's "open, write one
// message, close" behaviour. Connections speak the hand-written binary
// codec (internal/proto): a two-byte magic/version preface, then
// length-prefixed frames until EOF. An inbound connection that opens
// with anything else is logged and closed.
//
// A runtime runs its handler on Config.Loops per-core event loops
// (default 1). Handlers implementing node.PartitionedHandler are split
// into one partition per loop; sessions are hash-pinned to loops with
// the shard layer's consistent hashing (shard.LoopMap), so every
// handler keeps the no-locking discipline it has under the simulator —
// per loop. See loop.go and route.go. Loops=1 reproduces the
// single-loop runtime exactly, including its wire bytes.
//
// Moving a message costs nothing of its own beyond the decode: a
// received envelope reaches its loop as a typed mailbox entry — its
// sender and message, not a closure over them — a DoOn caller waits on
// a pooled signal, each sender swaps two queue arrays instead of
// growing a fresh one per batch, and over the memory store a staged
// write is simply the synchronous one. What a call allocates is what it
// keeps and what its messages carry.
package rt

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/shard"
	"rpcv/internal/store"
)

// Directory maps node IDs to TCP addresses. In a real deployment this
// is the "finite list of known coordinators" downloaded from known
// repositories plus the addresses learned over time.
type Directory map[proto.NodeID]string

// Config parameterizes a runtime.
type Config struct {
	// ID is this node's stable identifier.
	ID proto.NodeID
	// ListenAddr is the TCP address to listen on (e.g. "127.0.0.1:0").
	// Empty means this node never receives (rarely useful).
	ListenAddr string
	// Directory maps peer IDs to addresses.
	Directory Directory
	// DiskDir is the directory backing the node's stable store, a
	// group-commit write-ahead log (store.OpenWAL). Empty means an
	// in-memory store (volatile across process restarts — fine for
	// tests, wrong for production).
	DiskDir string
	// Store is a vestige of the time DiskDir could be backed by one of
	// several engines: "" and "wal" both mean the WAL, any other value
	// fails Start, and it is ignored when DiskDir is empty. It stays
	// only because bench/grid.go assigns it and bench/ may not change
	// in the PR that removed the engines; the next benchmark PR deletes
	// that assignment and this field together.
	Store string
	// Handler is the protocol state machine to host.
	Handler node.Handler
	// Loops is the number of per-core event loops hosting the handler.
	// 0 or 1 means the classic single loop. Values above 1 require the
	// handler to implement node.PartitionedHandler — otherwise the
	// runtime clamps to 1 — and pin each session to one loop with the
	// shard layer's consistent hashing, so submit throughput scales
	// with cores while handlers stay lock-free per loop. Peers in one
	// coordinator ring should run the same value (loop-tagged traffic
	// routes partition j to partition j); a single-loop node is always
	// wire-compatible with any peer.
	Loops int
	// Seed for the node's RNG; 0 derives one from the ID. Each loop
	// derives its own stream from this seed.
	Seed int64
	// Logf, when non-nil, receives trace output (default: log.Printf).
	Logf func(format string, args ...any)
	// DialTimeout bounds connection attempts. Default 2 s.
	DialTimeout time.Duration
	// QueueDepth bounds each peer's send queue. When full, the oldest
	// queued envelope is dropped — best-effort semantics,
	// indistinguishable from network loss. Default 128.
	QueueDepth int
	// IdleTimeout closes a pooled connection with no outbound traffic
	// and retires its sender goroutine; the next send re-establishes
	// both. The read side grants inbound connections its own
	// IdleTimeout plus 30 s of quiet, so keep the knob consistent
	// across a deployment: a receiver with a shorter IdleTimeout than
	// its senders cuts their pooled connections first, and the first
	// flush after each quiet gap may be lost (recovered, as any loss,
	// by heartbeats and resends). Default 30 s.
	IdleTimeout time.Duration
	// Obs, when non-nil, receives runtime metrics: the transport
	// counters and batch sizes, the store's write-to-durable latency,
	// (with a DiskDir) the WAL's group-commit and snapshot counters, all
	// labeled node="<ID>", and per-loop counters (tasks, handoffs,
	// mailbox depth, pending timers) labeled node + loop. Counters the
	// hot path already maintains are exposed as scrape-time funcs, so
	// observability costs nothing per message; the write-latency
	// histogram adds a few atomic adds per durable write. Nil disables
	// everything.
	Obs *obs.Observer
	// MaxInboundConns caps concurrent inbound connections; beyond it,
	// new connections are shed (accepted, immediately closed, counted
	// in TransportStats.Sheds) so a slow or malicious peer cannot
	// exhaust file descriptors. Size it above the steady peer
	// population: a shed connection loses whatever it carried, and if
	// active peers outnumber the cap for long, lost heartbeats turn
	// into false fault suspicions. Default 256.
	MaxInboundConns int
	// WrapStore, when non-nil, interposes on the store after it is
	// opened (so the WAL's directory-refusal check has already run)
	// and before any loop sees it. The chaos harness uses it to inject
	// disk faults (store.WithFaults); the wrapper must preserve the
	// Store contract. Note: a wrapper hides optional interfaces
	// (store.Laner, WALStats), so multi-loop store lanes degrade to
	// the shared path under a wrapped store.
	WrapStore func(store.Store) store.Store
}

// Runtime hosts one handler across one or more event loops.
type Runtime struct {
	cfg   Config
	ln    net.Listener
	store store.Store

	loops   []*loop
	loopMap *shard.LoopMap
	fromIDs []proto.NodeID // wire From per loop (tagged when len(loops)>1)

	mu     sync.Mutex
	dir    Directory
	conns  map[net.Conn]struct{}
	closed bool

	sendMu  sync.Mutex
	senders map[proto.NodeID]*sender

	inbound  atomic.Int64
	stats    transportCounters
	clockOff atomic.Int64 // injected clock skew, ns (SetClockOffset)

	// obsBatch and obsWrite are nil-safe obs instruments (nil when
	// Config.Obs is): flushed-batch sizes and write-to-durable latency.
	obsBatch *obs.Histogram
	obsWrite *obs.Histogram

	quit chan struct{}
	wg   sync.WaitGroup
}

// Start creates the runtime, binds its listener and boots the handler.
func Start(cfg Config) (*Runtime, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("rt: empty node ID")
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("rt: nil handler")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = defaultIdleTimeout
	}
	if cfg.MaxInboundConns <= 0 {
		cfg.MaxInboundConns = defaultMaxInboundConns
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	seed := cfg.Seed
	if seed == 0 {
		for _, c := range cfg.ID {
			seed = seed*131 + int64(c)
		}
		seed ^= time.Now().UnixNano()
	}

	// Resolve the loop count and partition the handler. A handler that
	// cannot partition is clamped to one loop: correctness first, the
	// flag is a capability request, not a promise.
	nloops := cfg.Loops
	if nloops < 1 {
		nloops = 1
	}
	var handlers []node.Handler
	if nloops > 1 {
		if ph, ok := cfg.Handler.(node.PartitionedHandler); ok {
			handlers = ph.Partition(nloops)
			if len(handlers) != nloops || handlers[0] == nil {
				return nil, fmt.Errorf("rt: handler partitioned into %d of %d loops", len(handlers), nloops)
			}
		} else {
			cfg.Logf("rt(%s): handler %T cannot partition; clamping %d loops to 1", cfg.ID, cfg.Handler, nloops)
			nloops = 1
		}
	}
	if nloops == 1 {
		handlers = []node.Handler{cfg.Handler}
	}

	r := &Runtime{
		cfg:     cfg,
		dir:     make(Directory, len(cfg.Directory)),
		conns:   make(map[net.Conn]struct{}),
		senders: make(map[proto.NodeID]*sender),
		loopMap: shard.NewLoopMap(nloops),
		quit:    make(chan struct{}),
	}
	for id, addr := range cfg.Directory {
		r.dir[id] = addr
	}

	// The wire From per loop: a single-loop runtime sends the bare ID
	// (byte-identical to the pre-multi-core wire); a multi-loop one
	// tags every frame with its originating loop so a multi-loop peer
	// can route loop-symmetric traffic j -> j.
	r.fromIDs = make([]proto.NodeID, nloops)
	for i := range r.fromIDs {
		if nloops == 1 {
			r.fromIDs[i] = cfg.ID
		} else {
			r.fromIDs[i] = cfg.ID + proto.NodeID(loopTagSep+strconv.Itoa(i))
		}
	}

	if cfg.DiskDir != "" {
		if cfg.Store != "" && cfg.Store != "wal" {
			return nil, fmt.Errorf("rt: unknown store %q: the wal is the only durable engine", cfg.Store)
		}
		st, err := store.OpenWAL(cfg.DiskDir, store.WALOptions{})
		if err != nil {
			return nil, fmt.Errorf("rt: disk: %w", err)
		}
		r.store = st
	} else {
		r.store = store.NewMemory()
	}
	r.store = checkStore(r.store)
	if cfg.WrapStore != nil {
		r.store = cfg.WrapStore(r.store)
	}

	// Build the loops: per-loop RNG stream, store lane (the WAL stages
	// per loop; the memory store and wrapped stores are shared
	// directly), env and disk adapter.
	laner, _ := r.store.(store.Laner)
	r.loops = make([]*loop, nloops)
	for i := 0; i < nloops; i++ {
		l := &loop{
			idx:     i,
			r:       r,
			handler: handlers[i],
			mailbox: make(chan mail, mailboxSlots),
			wake:    make(chan struct{}, 1),
			rng:     rand.New(rand.NewSource(seed + int64(i)*0x9E3779B9)),
		}
		l.store = r.store
		if laner != nil && nloops > 1 {
			l.store = laner.Lane()
		}
		_, inline := l.store.(*store.Memory)
		l.disk = &loopDisk{l: l, inline: inline}
		l.env = &rtEnv{l: l}
		r.loops[i] = l
	}
	r.registerObs()

	// Seed each mailbox with the handler's Start BEFORE any goroutine
	// that could deliver traffic exists: a peer connecting in the
	// window between the accept loop spawning and Start being posted
	// would otherwise have its message Received by an un-Started
	// handler. The mailboxes are empty and loops not yet running, so
	// the sends cannot block.
	for _, l := range r.loops {
		l := l
		l.mailbox <- mail{fn: func() { l.handler.Start(l.env) }}
	}

	if cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			// Release the store: a leaked wal keeps its committer
			// goroutine and segment fd alive, and a retry would open a
			// second committer over the same directory.
			_ = r.store.Close()
			return nil, fmt.Errorf("rt: listen: %w", err)
		}
		r.ln = ln
		r.wg.Add(1)
		go r.acceptLoop()
	}

	for _, l := range r.loops {
		r.wg.Add(1)
		go l.run()
	}
	return r, nil
}

// registerObs publishes the runtime's signals into Config.Obs. The
// transport and WAL counters are already atomics (or mutex-guarded
// snapshots) the hot path maintains regardless, so they register as
// scrape-time funcs: zero added cost per message.
func (r *Runtime) registerObs() {
	reg := r.cfg.Obs.Registry()
	if reg == nil {
		return
	}
	nl := obs.L("node", string(r.cfg.ID))
	reg.CounterFunc("rpcv_transport_sent_total", r.stats.sent.Load, nl)
	reg.CounterFunc("rpcv_transport_flushes_total", r.stats.flushes.Load, nl)
	for why, name := range dropReasonNames {
		reg.CounterFunc("rpcv_transport_dropped_total", r.stats.dropped[why].Load, nl, obs.L("reason", name))
	}
	reg.CounterFunc("rpcv_transport_redials_total", r.stats.redials.Load, nl)
	reg.CounterFunc("rpcv_transport_sheds_total", r.stats.sheds.Load, nl)
	reg.GaugeFunc("rpcv_transport_inbound_conns", func() float64 { return float64(r.inbound.Load()) }, nl)
	r.obsBatch = reg.Histogram("rpcv_transport_batch_msgs", nl)
	r.obsWrite = reg.Histogram("rpcv_store_write_latency_ns", nl)
	for _, l := range r.loops {
		l := l
		ll := obs.L("loop", strconv.Itoa(l.idx))
		reg.CounterFunc("rpcv_loop_tasks_total", l.tasks.Load, nl, ll)
		reg.CounterFunc("rpcv_loop_handoffs_total", l.handoffs.Load, nl, ll)
		reg.GaugeFunc("rpcv_loop_mailbox_depth", func() float64 { return float64(len(l.mailbox)) }, nl, ll)
		reg.GaugeFunc("rpcv_loop_timers", func() float64 {
			l.tmu.Lock()
			defer l.tmu.Unlock()
			return float64(len(l.timers))
		}, nl, ll)
	}
	if w, ok := r.store.(interface{ Stats() store.WALStats }); ok {
		reg.CounterFunc("rpcv_store_wal_commits_total", func() uint64 { return w.Stats().Commits }, nl)
		reg.CounterFunc("rpcv_store_wal_committed_ops_total", func() uint64 { return w.Stats().CommittedOps }, nl)
		reg.CounterFunc("rpcv_store_wal_snapshots_total", func() uint64 { return w.Stats().Snapshots }, nl)
		reg.GaugeFunc("rpcv_store_wal_segments", func() float64 { return float64(w.Stats().Segments) }, nl)
		reg.GaugeFunc("rpcv_store_wal_replayed_records", func() float64 { return float64(w.Stats().ReplayedRecords) }, nl)
	}
}

// Addr returns the bound listen address ("" when not listening).
func (r *Runtime) Addr() string {
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// ID returns the hosted node's identifier.
func (r *Runtime) ID() proto.NodeID { return r.cfg.ID }

// Loops returns the number of event loops hosting the handler.
func (r *Runtime) Loops() int { return len(r.loops) }

// LoopFor returns the loop index owning a session under this runtime's
// placement — the same consistent hashing the delivery path uses, so
// callers (experiments, tests, statusz) can predict or balance
// placement.
func (r *Runtime) LoopFor(user proto.UserID, session proto.SessionID) int {
	return r.loopMap.Owner(user, session)
}

// SetPeer updates the directory entry for a peer (e.g. after a
// coordinator-list merge carried addresses out of band).
func (r *Runtime) SetPeer(id proto.NodeID, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dir[id] = addr
}

// Do runs fn on loop 0 and returns once it executed. It is how
// application code (the GridRPC facade) calls into the hosted handler
// safely. On a partitioned handler it reaches partition 0 only; use
// DoOn for a specific partition.
func (r *Runtime) Do(fn func()) { r.DoOn(0, fn) }

// DoOn runs fn on loop i's event loop and returns once it executed.
func (r *Runtime) DoOn(i int, fn func()) {
	w := waiters.Get().(*waiter)
	w.fn = fn
	select {
	case r.loops[i].mailbox <- mail{fn: w.run}:
		<-w.done
	case <-r.quit:
	}
	w.fn = nil
	waiters.Put(w)
}

// waiter is what DoOn hands a loop and waits on: the loop runs fn, then
// signals done. Waiters are pooled with run bound once, so a DoOn
// allocates neither a closure nor a channel.
type waiter struct {
	fn   func()
	run  func()
	done chan struct{}
}

var waiters = sync.Pool{New: func() any {
	w := &waiter{done: make(chan struct{}, 1)}
	w.run = func() {
		w.fn()
		w.done <- struct{}{}
	}
	return w
}}

// Ping proves loop 0 is live; see PingLoop.
func (r *Runtime) Ping(d time.Duration) error { return r.PingLoop(0, d) }

// PingLoop proves event loop i is live: it schedules a no-op and
// waits at most d for the loop to run it. A nil return means the loop
// both accepted and executed work within the budget; the error
// otherwise says which half stalled. It is the liveness probe behind
// the daemons' /healthz — safe to call from any goroutine, including
// after Close (which reports the runtime as stopped).
func (r *Runtime) PingLoop(i int, d time.Duration) error {
	l := r.loops[i]
	timer := time.NewTimer(d)
	defer timer.Stop()
	done := make(chan struct{})
	select {
	case l.mailbox <- mail{fn: func() { close(done) }}:
	case <-timer.C:
		return fmt.Errorf("event loop %d did not accept work within %v (mailbox full)", i, d)
	case <-r.quit:
		return fmt.Errorf("runtime stopped")
	}
	select {
	case <-done:
		return nil
	case <-timer.C:
		return fmt.Errorf("event loop %d did not respond within %v", i, d)
	case <-r.quit:
		return fmt.Errorf("runtime stopped")
	}
}

// DoAsync schedules fn on loop 0 without waiting.
func (r *Runtime) DoAsync(fn func()) { r.DoAsyncOn(0, fn) }

// DoAsyncOn schedules fn on loop i without waiting.
func (r *Runtime) DoAsyncOn(i int, fn func()) {
	select {
	case r.loops[i].mailbox <- mail{fn: fn}:
	case <-r.quit:
	}
}

// SetClockOffset skews this node's notion of "now": every env.Now()
// reading (heartbeat stamps, failure-detector lastSeen and sweeps)
// shifts by d, while wall-clock timers keep firing on real time — the
// clock-skew fault shape, where a node's clock jumps but its cadence
// does not. Safe from any goroutine; zero restores real time.
func (r *Runtime) SetClockOffset(d time.Duration) { r.clockOff.Store(int64(d)) }

// ClockOffset returns the current injected clock skew.
func (r *Runtime) ClockOffset() time.Duration { return time.Duration(r.clockOff.Load()) }

// StallLoop blocks event loop i for d: timers do not fire, messages
// queue in the mailbox, heartbeats lapse — but the process, its
// listener and its pooled connections stay up. This is the
// stalled-not-dead fault (GC pause, noisy neighbor, swap storm): peers
// must decide on heartbeat silence alone, with TCP still open. Returns
// without waiting for the stall to elapse.
func (r *Runtime) StallLoop(i int, d time.Duration) {
	r.DoAsyncOn(i, func() { stallLoopBody(d) })
}

// StallLoops stalls every event loop for d, freezing the whole node.
func (r *Runtime) StallLoops(d time.Duration) {
	for i := range r.loops {
		r.StallLoop(i, d)
	}
}

// stallLoopBody deliberately blocks the calling event loop — the one
// thing loop code must never do, injected on purpose by the chaos
// harness through StallLoop. The loop-safe annotation is the audited
// escape hatch: the blocking is the fault under test.
//
//rpcv:loop-safe
func stallLoopBody(d time.Duration) { time.Sleep(d) }

// LoopStat is a point-in-time snapshot of one event loop, for statusz.
type LoopStat struct {
	Loop         int    `json:"loop"`
	Tasks        uint64 `json:"tasks"`
	Handoffs     uint64 `json:"handoffs"`
	MailboxDepth int    `json:"mailbox_depth"`
	Timers       int    `json:"timers"`
}

// LoopStats snapshots every loop's counters. Safe from any goroutine.
func (r *Runtime) LoopStats() []LoopStat {
	out := make([]LoopStat, len(r.loops))
	for i, l := range r.loops {
		l.tmu.Lock()
		timers := len(l.timers)
		l.tmu.Unlock()
		out[i] = LoopStat{
			Loop:         i,
			Tasks:        l.tasks.Load(),
			Handoffs:     l.handoffs.Load(),
			MailboxDepth: len(l.mailbox),
			Timers:       timers,
		}
	}
	return out
}

// Close stops the handler and releases the listener. It does not
// remove the disk directory: stable storage survives, as a crash-stop
// would leave it.
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()

	for _, l := range r.loops {
		l := l
		r.DoOn(l.idx, func() { l.handler.Stop() })
	}
	close(r.quit)
	if r.ln != nil {
		r.ln.Close()
	}
	// Closing live connections interrupts blocked reads and writes so
	// no goroutine lingers until a network deadline expires.
	r.mu.Lock()
	conns := make([]net.Conn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	r.wg.Wait()
	// Flush and release the store last: in-flight group commits drain,
	// so everything a handler was promised durable actually is.
	if err := r.store.Close(); err != nil {
		r.cfg.Logf("rt(%s): store close: %v", r.cfg.ID, err)
	}
}

// track registers a live connection so Close can interrupt its blocked
// reads and writes; it refuses (and closes) connections arriving
// during shutdown.
func (r *Runtime) track(conn net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		conn.Close()
		return false
	}
	r.conns[conn] = struct{}{}
	return true
}

func (r *Runtime) untrack(conn net.Conn) {
	r.mu.Lock()
	delete(r.conns, conn)
	r.mu.Unlock()
}

func (r *Runtime) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			select {
			case <-r.quit:
				return
			default:
			}
			r.cfg.Logf("rt(%s): accept: %v", r.cfg.ID, err)
			continue
		}
		if n := r.inbound.Add(1); n > int64(r.cfg.MaxInboundConns) {
			// Accept-side shedding: beyond the cap a connection is
			// closed on the spot, costing the peer a reconnect instead
			// of costing this node a file descriptor for up to a read
			// deadline. The break itself is harmless (never a fault
			// signal), but a shed connection carried undelivered
			// messages — under sustained overload that includes
			// heartbeats, which IS how faults are suspected. The cap
			// must therefore exceed the steady peer population (see
			// Config.MaxInboundConns); the Sheds counter is the
			// operator's signal that it does not.
			r.inbound.Add(-1)
			r.stats.sheds.Add(1)
			conn.Close()
			continue
		}
		if !r.track(conn) {
			r.inbound.Add(-1)
			return
		}
		r.wg.Add(1)
		go r.handleConn(conn)
	}
}

// handleConn drains one inbound connection: the two-byte preface, then
// length-prefixed frames until EOF, each message routed to its owning
// loop by deliver (route.go). A connection that does not open with the
// preface — a port scan, a peer on another protocol or codec version —
// is logged and closed without delivering anything.
func (r *Runtime) handleConn(conn net.Conn) {
	defer r.wg.Done()
	defer r.inbound.Add(-1)
	defer r.untrack(conn)
	defer conn.Close()
	// The deadline outlives the sender's idle timeout so the sender,
	// not the receiver, decides when a quiet connection dies.
	deadline := func() {
		_ = conn.SetReadDeadline(time.Now().Add(r.cfg.IdleTimeout + 30*time.Second))
	}
	deadline()
	br := bufio.NewReader(conn)
	if err := proto.ReadPreface(br); err != nil {
		if err != io.EOF {
			r.cfg.Logf("rt(%s): preface from %s: %v", r.cfg.ID, conn.RemoteAddr(), err)
		}
		return
	}
	dec := proto.NewWireDecoder(br)
	for {
		deadline()
		from, msg, err := dec.Next()
		if err != nil {
			if err != io.EOF {
				r.cfg.Logf("rt(%s): decode frame: %v", r.cfg.ID, err)
			}
			return
		}
		r.deliver(from, msg)
	}
}

// lookup resolves a peer's current address.
func (r *Runtime) lookup(to proto.NodeID) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	addr, ok := r.dir[to]
	return addr, ok
}

// send enqueues msg on the peer's sender, stamped with the originating
// loop's wire From: never blocking, dropping the oldest queued envelope
// on overflow. Failures are silent (best-effort network): the
// protocol's heartbeats and resends own all recovery.
func (r *Runtime) send(to proto.NodeID, msg proto.Message, loopIdx int) {
	if _, ok := r.lookup(to); !ok {
		r.cfg.Logf("rt(%s): no address for %s, dropping %s", r.cfg.ID, to, msg.Kind())
		return
	}
	r.senderFor(to).enqueue(outMsg{msg: msg, from: r.taggedFrom(loopIdx)})
}

// ---------------------------------------------------------------------
// Env implementation
// ---------------------------------------------------------------------

type rtEnv struct{ l *loop }

var (
	_ node.Env       = (*rtEnv)(nil)
	_ node.LoopInfo  = (*rtEnv)(nil)
	_ node.Offloader = (*rtEnv)(nil)
)

func (e *rtEnv) Self() proto.NodeID { return e.l.r.cfg.ID }
func (e *rtEnv) Now() time.Time {
	if off := e.l.r.clockOff.Load(); off != 0 {
		return time.Now().Add(time.Duration(off))
	}
	return time.Now()
}
func (e *rtEnv) Disk() node.Disk { return e.l.disk }

// Rand returns the loop-private RNG: each loop seeds its own stream,
// so concurrent loops never share (and never race on) one rand.Rand.
func (e *rtEnv) Rand() *rand.Rand { return e.l.rng }

// Loop implements node.LoopInfo: the partition's placement.
func (e *rtEnv) Loop() (int, int) { return e.l.idx, len(e.l.r.loops) }

func (e *rtEnv) Logf(format string, args ...any) {
	e.l.r.cfg.Logf("%s: %s", e.l.r.cfg.ID, fmt.Sprintf(format, args...))
}

// Send hands msg to the transport without ever blocking the loop: it
// enqueues, dropping the oldest envelope on overflow. The frame carries
// this loop's From tag so a multi-loop peer routes it
// loop-symmetrically.
//
//rpcv:loop-only
func (e *rtEnv) Send(to proto.NodeID, msg proto.Message) { e.l.r.send(to, msg, e.l.idx) }

// After registers a timer on this loop's timer heap: fn fires on the
// owning loop when the deadline passes, and Stop removes it from the
// heap.
//
//rpcv:loop-only
func (e *rtEnv) After(d time.Duration, fn func()) node.Timer {
	return e.l.after(d, fn)
}

// Offload implements node.Offloader: work gets a goroutine of its own,
// and done rides the loop's handoff ring back — the never-blocking path,
// so a finished body is never stuck behind a full mailbox. The goroutine
// is deliberately not in the runtime's WaitGroup: Close does not wait
// for a body in flight (the sleep service accepts an hour). A body that
// outlives its runtime posts to a ring nobody drains, and the goroutine
// ends there.
//
//rpcv:loop-only
func (e *rtEnv) Offload(work, done func()) {
	l := e.l
	go func() {
		work()
		l.post(done)
	}()
}

// ---------------------------------------------------------------------
// Stable storage
// ---------------------------------------------------------------------

// loopDisk adapts a loop's durable store (internal/store; a per-loop
// staging lane on engines that support one) to the node.BatchDisk
// contract: synchronous operations pass through — values included,
// uncopied in both directions, so the ownership rule the handler
// accepted is the one the engine relies on — and the staged calls'
// completion callbacks — which a group-commit engine runs on its
// committer goroutine — are marshalled back onto the owning loop,
// preserving the handlers' no-locking discipline. Completions ride the
// loop's lock-free handoff ring, never its bounded mailbox: a
// committer blocked on a full mailbox would deadlock any loop waiting
// inside a synchronous Write of the same batch.
type loopDisk struct {
	l *loop
	// inline: the store is the memory store, whose staged calls are its
	// synchronous ones followed by the callback. They are made here as
	// exactly that, with nothing to marshal and nothing to allocate.
	inline bool
}

var _ node.BatchDisk = (*loopDisk)(nil)

func (d *loopDisk) Write(key string, value []byte) error {
	if h := d.l.r.obsWrite; h != nil {
		start := time.Now()
		err := d.l.store.Write(key, value)
		h.Since(start)
		return err
	}
	return d.l.store.Write(key, value)
}

func (d *loopDisk) Read(key string) ([]byte, bool) { return d.l.store.Read(key) }
func (d *loopDisk) Delete(key string) error        { return d.l.store.Delete(key) }
func (d *loopDisk) Keys(prefix string) []string    { return d.l.store.Keys(prefix) }
func (d *loopDisk) Sync() error                    { return d.l.store.Sync() }

func (d *loopDisk) WriteAsync(key string, value []byte, done func(error)) {
	if done == nil {
		d.l.store.WriteAsync(key, value, nil)
		return
	}
	if d.inline {
		done(d.Write(key, value))
		return
	}
	if h := d.l.r.obsWrite; h != nil {
		// Completion time includes group-commit queueing: the latency a
		// handler actually waits for durability, which is the number
		// the fsync-amortization story must be judged by.
		start := time.Now()
		inner := done
		done = func(err error) {
			h.Since(start)
			inner(err)
		}
	}
	d.onLoop(done, func(fromStore func(error)) { d.l.store.WriteAsync(key, value, fromStore) })
}

func (d *loopDisk) DeleteAsync(key string, done func(error)) {
	if done == nil {
		d.l.store.DeleteAsync(key, nil)
		return
	}
	if d.inline {
		done(d.l.store.Delete(key))
		return
	}
	d.onLoop(done, func(fromStore func(error)) { d.l.store.DeleteAsync(key, fromStore) })
}

// onLoop stages one operation whose completion the store may report
// from any goroutine, and sees that done runs on the owning loop.
//
// A store without real batching (memory behind a wrapper, which hides
// it from the inline path) completes synchronously, invoking the
// callback on this goroutine — the owning event loop.
// Routing that through the handoff ring would defer it behind unrelated
// work; detect completion-before-return and invoke done inline (still
// on the owning loop). Only callbacks arriving later — from a committer
// goroutine — are marshalled back through the loop's handoff ring.
func (d *loopDisk) onLoop(done func(error), stage func(fromStore func(error))) {
	st := &asyncWriteState{}
	stage(func(err error) {
		st.mu.Lock()
		if !st.returned {
			st.fired, st.err = true, err
			st.mu.Unlock()
			return
		}
		st.mu.Unlock()
		// The ring survives shutdown draining, so a callback racing
		// Close still lands; one arriving after the final drain is
		// dropped with the loop — indistinguishable from the crash it
		// models.
		d.l.post(func() { done(err) })
	})
	st.mu.Lock()
	st.returned = true
	fired, err := st.fired, st.err
	st.mu.Unlock()
	if fired {
		done(err)
	}
}

// asyncWriteState tracks whether a store completed a staged operation
// before the staging call returned to the event loop.
type asyncWriteState struct {
	mu       sync.Mutex
	returned bool
	fired    bool
	err      error
}
