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
// A runtime hosts its handler on exactly one event loop, as the paper's
// nodes run: every message, timer and completion executes on it in
// turn, so a handler keeps the no-locking discipline it has under the
// simulator (loop.go).
//
// Moving a message costs nothing of its own beyond the decode: a
// received envelope reaches the loop as a typed mailbox entry — its
// sender and message, not a closure over them — a Do caller waits on
// a pooled signal, each sender swaps two queue arrays instead of
// growing a fresh one per batch, over the memory store a staged write
// is simply the synchronous one, and over the WAL a staged write's
// completion travels back to the loop as a function bound once in a
// pooled record, as an offloaded body's does. Receiving a message costs
// nothing of its own either: once the handler's Receive has returned,
// the struct the message was decoded into goes back to the wire
// decoder's pool for the next message of its kind, if the handler
// promised to keep no pointer to it (node.Forgetter: the coordinator,
// the server and the client do). What a call allocates is what it keeps
// and what its messages carry.
//
// A payload a message delivers is the receiver's: the wire decoder read
// it into an array of its own, shared with no other node of the process
// and with no buffer of the runtime. From 4 KiB up that array comes from
// proto's pool, at the capacity a make would give it, and a handler that
// is done with it may give it back (node.Release): the server does with
// a task's params once the service body has returned and with a
// result's output once it is acknowledged and its log entry deleted,
// the coordinator with a collected call's params and output, the
// coordinator and the client with a duplicate's payload. So in one
// process a large call's four reads go into the buffers of earlier
// calls. The handler vouches for what it kept and logged; the runtime
// for what it was asked to send: a given-back payload reaches the pool
// only once every envelope queued before the release — one of them may
// carry it — is written or dropped (release.go). Everything a handler
// keeps — a logged value, a job record, a result — it keeps as it would
// a made slice.
package rt

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"math/rand"
	randv2 "math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
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
	// Loops is a vestige of the time a runtime could host a partitioned
	// handler on several event loops: it hosts every handler on exactly
	// one, so 0 and 1 both mean that loop and any other value fails
	// Start. It stays only because bench/grid.go assigns it and bench/
	// may not change in the PR that removed the other loops; the next
	// benchmark PR deletes that assignment and this field together.
	Loops int
	// Seed for the node's RNG; 0 derives one from the ID.
	Seed int64
	// Logf, when non-nil, receives trace output (default: log.Printf).
	Logf func(format string, args ...any)
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
	// (with a DiskDir) the WAL's group-commit and snapshot counters and
	// the event loop's counters (tasks, handoffs, mailbox depth, pending
	// timers), all labeled node="<ID>". Counters the hot path already
	// maintains are exposed as scrape-time funcs, so observability costs
	// nothing per message; the write-latency histogram adds a few atomic
	// adds per durable write. Nil disables everything.
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
	// and before the loop sees it. The chaos harness uses it to inject
	// disk faults (store.WithFaults); the wrapper must preserve the
	// Store contract. Note: a wrapper hides the WAL's optional Stats, so
	// its commit counters go unexported under a wrapped store, and the
	// staged calls of a wrapped memory store complete through the loop's
	// handoff queue, as the WAL's do, not inline.
	WrapStore func(store.Store) store.Store
}

// Runtime hosts one handler on one event loop.
type Runtime struct {
	cfg   Config
	ln    net.Listener
	store store.Store
	loop  // the event loop's state (loop.go)

	mu     sync.Mutex
	dir    Directory
	conns  map[net.Conn]struct{}
	closed bool

	sendMu  sync.Mutex
	senders map[proto.NodeID]*sender

	// Payloads given back while envelopes may still carry them
	// (release.go); releasing says that releases is not empty.
	relMu     sync.Mutex
	releases  []pendingRelease
	releasing atomic.Bool

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
	if cfg.Loops < 0 || cfg.Loops > 1 {
		return nil, fmt.Errorf("rt: Loops = %d: a runtime hosts its handler on exactly one event loop (0 or 1)", cfg.Loops)
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

	_, forgets := cfg.Handler.(node.Forgetter)
	r := &Runtime{
		cfg: cfg,
		loop: loop{
			handler: cfg.Handler,
			forgets: forgets,
			mailbox: make(chan mail, mailboxSlots),
			wake:    make(chan struct{}, 1),
			rng:     rand.New(newPCG(seed)),
		},
		dir:     make(Directory, len(cfg.Directory)),
		conns:   make(map[net.Conn]struct{}),
		senders: make(map[proto.NodeID]*sender),
		quit:    make(chan struct{}),
	}
	for id, addr := range cfg.Directory {
		r.dir[id] = addr
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
	// Inline is decided on the engine itself, before the race build's
	// checker hides it; a test's wrapper may complete however it likes.
	_, inline := r.store.(*store.Memory)
	r.store = checkStore(r.store)
	if cfg.WrapStore != nil {
		r.store = cfg.WrapStore(r.store)
		inline = false
	}
	r.disk = &loopDisk{r: r, st: r.store, inline: inline}
	r.env = &rtEnv{r: r}
	r.registerObs()

	// Seed the mailbox with the handler's Start BEFORE any goroutine
	// that could deliver traffic exists: a peer connecting in the
	// window between the accept loop spawning and Start being posted
	// would otherwise have its message Received by an un-Started
	// handler. The mailbox is empty and the loop not yet running, so
	// the send cannot block.
	r.mailbox <- mail{fn: func() { r.handler.Start(r.env) }}

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

	r.wg.Add(1)
	go r.run()
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
	reg.CounterFunc("rpcv_loop_tasks_total", r.tasks.Load, nl)
	reg.CounterFunc("rpcv_loop_handoffs_total", r.handoffs.Load, nl)
	reg.GaugeFunc("rpcv_loop_mailbox_depth", func() float64 { return float64(len(r.mailbox)) }, nl)
	reg.GaugeFunc("rpcv_loop_timers", func() float64 { return float64(r.nTimers.Load()) }, nl)
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

// SetPeer updates the directory entry for a peer (e.g. after a
// coordinator-list merge carried addresses out of band).
func (r *Runtime) SetPeer(id proto.NodeID, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dir[id] = addr
}

// Do runs fn on the event loop and returns once it executed. It is how
// application code (the GridRPC facade) calls into the hosted handler
// safely.
func (r *Runtime) Do(fn func()) {
	w := waiters.Get().(*waiter)
	w.fn = fn
	select {
	case r.mailbox <- mail{fn: w.run}:
		<-w.done
	case <-r.quit:
	}
	w.fn = nil
	waiters.Put(w)
}

// waiter is what Do hands the loop and waits on: the loop runs fn, then
// signals done. Waiters are pooled with run bound once, so a Do
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

// Ping proves the event loop is live: it schedules a no-op and waits at
// most d for the loop to run it. A nil return means the loop both
// accepted and executed work within the budget; the error otherwise
// says which half stalled. It is the liveness probe behind the daemons'
// /healthz — safe to call from any goroutine, including after Close
// (which reports the runtime as stopped).
func (r *Runtime) Ping(d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	done := make(chan struct{})
	select {
	case r.mailbox <- mail{fn: func() { close(done) }}:
	case <-timer.C:
		return fmt.Errorf("event loop did not accept work within %v (mailbox full)", d)
	case <-r.quit:
		return fmt.Errorf("runtime stopped")
	}
	select {
	case <-done:
		return nil
	case <-timer.C:
		return fmt.Errorf("event loop did not respond within %v", d)
	case <-r.quit:
		return fmt.Errorf("runtime stopped")
	}
}

// DoAsync schedules fn on the event loop without waiting.
func (r *Runtime) DoAsync(fn func()) {
	select {
	case r.mailbox <- mail{fn: fn}:
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

// StallLoops blocks the event loop for d, freezing the whole node:
// timers do not fire, messages queue in the mailbox, heartbeats lapse —
// but the process, its listener and its pooled connections stay up.
// This is the stalled-not-dead fault (GC pause, noisy neighbor, swap
// storm): peers must decide on heartbeat silence alone, with TCP still
// open. Returns without waiting for the stall to elapse.
func (r *Runtime) StallLoops(d time.Duration) {
	r.DoAsync(func() { stallLoopBody(d) })
}

// stallLoopBody deliberately blocks the calling event loop — the one
// thing loop code must never do, injected on purpose by the chaos
// harness through StallLoops. The loop-safe annotation is the audited
// escape hatch: the blocking is the fault under test.
//
//rpcv:loop-safe
func stallLoopBody(d time.Duration) { time.Sleep(d) }

// LoopStat is a point-in-time snapshot of the event loop, for statusz.
type LoopStat struct {
	Tasks        uint64 `json:"tasks"`
	Handoffs     uint64 `json:"handoffs"`
	MailboxDepth int    `json:"mailbox_depth"`
	Timers       int    `json:"timers"`
}

// LoopStats snapshots the event loop's counters. Safe from any
// goroutine. It returns a slice of one, a shape kept from the
// multi-loop runtime only because bench/grid.go ranges over it; the
// next benchmark PR changes that with Config.Loops.
func (r *Runtime) LoopStats() []LoopStat {
	return []LoopStat{{
		Tasks:        r.tasks.Load(),
		Handoffs:     r.handoffs.Load(),
		MailboxDepth: len(r.mailbox),
		Timers:       int(r.nTimers.Load()),
	}}
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

	r.Do(r.handler.Stop)
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

// Accept backoff bounds: after a failed Accept — out of file
// descriptors, say — the accept loop waits before it tries again,
// doubling from the first bound to the second, as net/http.Server does.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

func (r *Runtime) acceptLoop() {
	defer r.wg.Done()
	var backoff time.Duration
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			select {
			case <-r.quit:
				return
			default:
			}
			// A persistent error (EMFILE) would otherwise spin a core
			// and flood the log until it clears.
			backoff = min(max(2*backoff, acceptBackoffMin), acceptBackoffMax)
			r.cfg.Logf("rt(%s): accept: %v; retrying in %v", r.cfg.ID, err, backoff)
			select {
			case <-r.quit:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
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
// length-prefixed frames until EOF, each message handed to the event
// loop by receive (loop.go). A connection that does not open with the
// preface — a port scan, a peer on another protocol or codec version —
// is logged and closed without delivering anything.
func (r *Runtime) handleConn(conn net.Conn) {
	defer r.wg.Done()
	defer r.inbound.Add(-1)
	defer r.untrack(conn)
	defer conn.Close()
	// The deadline outlives the sender's idle timeout so the sender,
	// not the receiver, decides when a quiet connection dies.
	rd := deadline{set: conn.SetReadDeadline, span: r.cfg.IdleTimeout + 30*time.Second}
	rd.push()
	br := bufio.NewReader(conn)
	if err := proto.ReadPreface(br); err != nil {
		if err != io.EOF {
			r.cfg.Logf("rt(%s): preface from %s: %v", r.cfg.ID, conn.RemoteAddr(), err)
		}
		return
	}
	dec := proto.NewWireDecoder(br)
	for {
		rd.push()
		from, msg, err := dec.Next()
		if err != nil {
			if err != io.EOF {
				r.cfg.Logf("rt(%s): decode frame: %v", r.cfg.ID, err)
			}
			return
		}
		r.receive(from, msg)
	}
}

// lookup resolves a peer's current address.
func (r *Runtime) lookup(to proto.NodeID) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	addr, ok := r.dir[to]
	return addr, ok
}

// send enqueues msg on the peer's sender: never blocking, dropping the
// oldest queued envelope on overflow. Failures are silent (best-effort
// network): the protocol's heartbeats and resends own all recovery. A
// peer missing from the directory is dropped at once, counted as
// unreachable.
func (r *Runtime) send(to proto.NodeID, msg proto.Message) {
	if _, ok := r.lookup(to); !ok {
		r.stats.drop(dropUnreachable, 1)
		r.cfg.Logf("rt(%s): no address for %s, dropping %s", r.cfg.ID, to, msg.Kind())
		return
	}
	r.senderFor(to).enqueue(msg)
}

// ---------------------------------------------------------------------
// Env implementation
// ---------------------------------------------------------------------

type rtEnv struct{ r *Runtime }

var (
	_ node.Env       = (*rtEnv)(nil)
	_ node.Offloader = (*rtEnv)(nil)
	_ node.Releaser  = (*rtEnv)(nil)
)

func (e *rtEnv) Self() proto.NodeID { return e.r.cfg.ID }
func (e *rtEnv) Now() time.Time {
	if off := e.r.clockOff.Load(); off != 0 {
		return time.Now().Add(time.Duration(off))
	}
	return time.Now()
}
func (e *rtEnv) Disk() node.Disk { return e.r.disk }

// Rand returns the loop's private RNG: runtimes sharing a process never
// share (and never race on) one rand.Rand.
func (e *rtEnv) Rand() *rand.Rand { return e.r.rng }

// pcg is math/rand/v2's PCG behind math/rand's Source64: 16 bytes of
// state where math/rand's own source keeps 4.9 KB, for every runtime of
// a process for its whole life.
type pcg struct{ randv2.PCG }

func newPCG(seed int64) *pcg {
	s := &pcg{}
	s.Seed(seed)
	return s
}

func (s *pcg) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *pcg) Seed(seed int64) { s.PCG.Seed(uint64(seed), 0) }

var _ rand.Source64 = (*pcg)(nil)

func (e *rtEnv) Logf(format string, args ...any) {
	e.r.cfg.Logf("%s: %s", e.r.cfg.ID, fmt.Sprintf(format, args...))
}

// Send hands msg to the transport without ever blocking the loop: it
// enqueues, dropping the oldest envelope on overflow.
//
//rpcv:loop-only
func (e *rtEnv) Send(to proto.NodeID, msg proto.Message) { e.r.send(to, msg) }

// After registers a timer on the loop's timer heap: fn fires on the
// loop when the deadline passes, and Stop removes it from the heap.
//
//rpcv:loop-only
func (e *rtEnv) After(d time.Duration, fn func()) node.Timer {
	return e.r.after(d, fn)
}

// Offload implements node.Offloader: work gets a goroutine of its own,
// and done rides the loop's handoff queue back — the never-blocking
// path, so a finished body is never stuck behind a full mailbox. The two
// travel in a pooled offload record with its callbacks bound once, so
// an offload allocates nothing but what the goroutine itself costs. The
// goroutine is deliberately not in the runtime's WaitGroup: Close does
// not wait for a body in flight (the sleep service accepts an hour). A
// body that outlives its runtime hands off to a queue nobody drains, and
// the goroutine ends there.
//
//rpcv:loop-only
func (e *rtEnv) Offload(work, done func()) {
	o := offloads.Get().(*offload)
	o.r, o.work, o.done = e.r, work, done
	go o.run()
}

// Release implements node.Releaser: every payload this runtime delivers
// was read off a connection into an array of its own, so a handler done
// with one gives it back to the wire decoder's pool — once the envelopes
// queued before the release, which may carry it, are written or dropped
// (release.go).
func (e *rtEnv) Release(b []byte) { e.r.release(b) }

// offload carries one offloaded body to its goroutine and its completion
// back to the loop. It is pooled and its two callbacks are bound once,
// as a staged write's asyncOp is.
type offload struct {
	run    func() // execute: the goroutine's work, then the handoff
	finish func() // complete, on the loop

	r          *Runtime
	work, done func()
}

var offloads sync.Pool // of *offload

func init() { // not offloads' initializer: complete refers to the pool
	offloads.New = func() any {
		o := &offload{}
		o.run = o.execute
		o.finish = o.complete
		return o
	}
}

func (o *offload) execute() {
	o.work()
	o.r.handoff(o.finish)
}

// complete runs on the loop: it recycles o and runs done.
func (o *offload) complete() {
	done := o.done
	o.r, o.work, o.done = nil, nil, nil
	offloads.Put(o)
	done()
}

// ---------------------------------------------------------------------
// Stable storage
// ---------------------------------------------------------------------

// loopDisk adapts the runtime's durable store (internal/store) to the
// node.BatchDisk contract: synchronous operations pass through — values
// included, uncopied in both directions, so the ownership rule the
// handler accepted is the one the engine relies on — and the staged
// calls' completion callbacks — which a group-commit engine runs on its
// committer goroutine — are handed back to the event loop, preserving
// the handler's no-locking discipline. Completions ride the loop's
// handoff queue, never its bounded mailbox: a committer blocked on a
// full mailbox would deadlock a loop waiting inside a synchronous Write
// of the same batch.
type loopDisk struct {
	r  *Runtime
	st store.Store
	// inline: the engine is the memory store and no test wraps it, so
	// the staged calls are its synchronous ones followed by the callback.
	// They are made here as exactly that, with nothing to hand back and
	// nothing to allocate.
	inline bool
}

var _ node.BatchDisk = (*loopDisk)(nil)

func (d *loopDisk) Write(key string, value []byte) error {
	if h := d.r.obsWrite; h != nil {
		start := time.Now()
		err := d.st.Write(key, value)
		h.Since(start)
		return err
	}
	return d.st.Write(key, value)
}

func (d *loopDisk) Read(key string) ([]byte, bool) { return d.st.Read(key) }
func (d *loopDisk) Delete(key string) error        { return d.st.Delete(key) }
func (d *loopDisk) Keys(prefix string) []string    { return d.st.Keys(prefix) }
func (d *loopDisk) Sync() error                    { return d.st.Sync() }

func (d *loopDisk) WriteAsync(key string, value []byte, done func(error)) {
	if done == nil {
		d.st.WriteAsync(key, value, nil)
		return
	}
	if d.inline {
		done(d.Write(key, value))
		return
	}
	op := d.stage(done)
	if d.r.obsWrite != nil {
		// Completion time includes group-commit queueing: the latency a
		// handler actually waits for durability, which is the number
		// the fsync-amortization story must be judged by.
		op.start = time.Now()
	}
	d.st.WriteAsync(key, value, op.stored)
}

func (d *loopDisk) DeleteAsync(key string, done func(error)) {
	if done == nil {
		d.st.DeleteAsync(key, nil)
		return
	}
	if d.inline {
		done(d.st.Delete(key))
		return
	}
	op := d.stage(done)
	d.st.DeleteAsync(key, op.stored)
}

// stage takes a pooled asyncOp for one operation whose completion the
// store may report from any goroutine, and which must reach done on the
// loop.
func (d *loopDisk) stage(done func(error)) *asyncOp {
	op := asyncOps.Get().(*asyncOp)
	op.r, op.done = d.r, done
	return op
}

// asyncOp carries one staged write or delete of a loopDisk to its
// completion. It is pooled and its two callbacks are bound once, so
// staging an operation and handing its completion back to the loop
// allocate nothing.
//
// Every completion travels the handoff queue, whichever goroutine the
// store reports it on: the WAL's committer, or — for a wrapped store
// that completes at once — the loop itself, inside the staging call.
// The stores report completions in staging order, and the queue keeps
// the order it is handed, so done runs in staging order.
type asyncOp struct {
	stored func(error) // completed: the store's callback
	finish func()      // complete, on the loop

	r     *Runtime
	done  func(error)
	err   error
	start time.Time // when the write-latency histogram times it
}

var asyncOps sync.Pool // of *asyncOp

func init() { // not asyncOps' initializer: complete refers to the pool
	asyncOps.New = func() any {
		op := &asyncOp{}
		op.stored = op.completed
		op.finish = op.complete
		return op
	}
}

// completed is the callback the store runs when the operation is
// durable or has failed, on whatever goroutine completes it. The queue
// survives shutdown draining, so a completion racing Close still lands;
// one arriving after the final drain is dropped with the loop —
// indistinguishable from the crash it models.
func (op *asyncOp) completed(err error) {
	op.err = err
	op.r.handoff(op.finish)
}

// complete runs on the loop: it times the write, recycles op and hands
// the outcome to done.
func (op *asyncOp) complete() {
	done, err := op.done, op.err
	if !op.start.IsZero() {
		op.r.obsWrite.Since(op.start)
	}
	op.r, op.done, op.err, op.start = nil, nil, nil, time.Time{}
	asyncOps.Put(op)
	done(err)
}
