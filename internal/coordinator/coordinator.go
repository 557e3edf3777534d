// Package coordinator implements the RPC-V middle tier.
//
// The Coordinator virtualizes servers for clients: clients never
// contact servers directly. One coordinator process
//
//   - registers client RPC submissions as job records in its task
//     database and acknowledges them;
//   - schedules pending jobs onto servers that pull work with their
//     heartbeats, delegating queue order, admission and straggler
//     speculation to a pluggable scheduling engine (internal/sched;
//     the default "fcfs" policy is the paper's behaviour);
//   - suspects silent servers (heartbeat timeout) and re-schedules new
//     instances of all RPC calls forwarded to the suspect ("on
//     suspicion" replication);
//   - stores task results, deduplicating at-least-once re-executions by
//     CallID, and serves them to polling clients;
//   - passively replicates its state to its successor on a virtual ring
//     of coordinators, recomputing the ring on suspicion;
//   - synchronizes state with reconnecting clients (timestamp
//     comparison) and servers (peer-wise log comparison).
//
// # Late replies
//
// The paper makes the volatile side initiate everything — servers pull
// work with their heartbeats, clients pull results with their polls —
// because its connections were per message and its nodes firewalled. A
// call's latency is then two timers: half a heartbeat period queued,
// half a poll period finished but uncollected. The pulls stay, and
// stay initiated by the volatile node, but the coordinator may answer
// one late: a Heartbeat that leaves capacity unused stands as the
// server's offer, and a job queued while it stands goes out at once in
// an ordinary HeartbeatAck; a session's last Poll stands as its
// subscription, and a result finished while it stands goes out at once
// in an ordinary Results. Same messages, same handlers on the far side
// (a server backlogs what exceeds its capacity, a client drops what it
// already holds), same answers — sooner. The timers keep beating: they
// are the liveness signal, and the retry for a late reply the network
// loses. late.go has the two tables and their rules; Config.PullOnly
// turns them off for the simulator, whose figures measure the protocol
// as the paper ran it.
//
// # Collection
//
// "Logging capacities are bounded, so components flush logs whose
// information is safely replicated elsewhere (e.g. acknowledged
// results)", and the garbage collection is "distributed among all
// components, triggered locally by conditions". The coordinator's
// condition is the watermark a session's Poll carries: a call whose
// seq the session's Poll.Ack has passed is collected. The client has
// said it holds the result, so the coordinator owes the session nothing
// more for that call except never to run it again. It keeps one number
// per session — the collected watermark, durable under coord/w/, the
// floor of the session's maximum timestamp, told to the ring successor
// and the successor shard with the session's entries they already
// receive — and deletes the record, the header and the blobs of every
// finished call at or below it, once no successor is still owed the
// call's finish. The job table, the store and a restart's replay then
// follow the calls in flight, not the grid's history. What a relaunched
// session can still fetch is every result no Poll has acknowledged; a
// message about a collected call — a duplicate Submit, a late
// TaskResult, a replica's copy — is answered exactly as one about a
// finished call and changes nothing. collect.go has the rule and the
// lookup that tells a collected call from one never seen.
//
// All methods run on the node's event loop (see internal/node); the
// type has no internal locking and must not be shared across loops.
package coordinator

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"rpcv/internal/db"
	"rpcv/internal/detector"
	"rpcv/internal/node"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/sched"
	"rpcv/internal/shard"
	"rpcv/internal/statesync"
)

// Config parameterizes a coordinator.
type Config struct {
	// Coordinators is the initial finite list of known coordinators
	// (including self), as downloaded from a known repository at system
	// initialization. It evolves with fault suspicions and merges.
	Coordinators []proto.NodeID

	// ReplicationPeriod is the delay between passive-replication rounds
	// to the ring successor. The paper's real-life experiments use 60 s.
	// Zero disables periodic replication (unit tests drive it manually).
	ReplicationPeriod time.Duration

	// HeartbeatTimeout is the silence duration after which servers and
	// the ring successor are suspected. Default detector.DefaultTimeout.
	HeartbeatTimeout time.Duration

	// HeartbeatPeriod is the period of the ring heartbeats this
	// coordinator sends to its fellow coordinators (the paper's "heart
	// beat" signal, which the state-abstract propagation rides on).
	// Default detector.DefaultPeriod.
	HeartbeatPeriod time.Duration

	// DBCost is a modelled cost of the paper's testbed — one
	// task-database statement (db.ConfinedCost, db.RealLifeCost) —
	// charged as virtual time before each reply. It belongs to the
	// simulator, whose builder (internal/cluster) sets it. The real
	// runtime leaves it zero, which is free: replies leave inline and
	// only db.Ops counts the statements.
	DBCost db.CostModel

	// MaxTasksPerAck caps how many task assignments ride on a single
	// heartbeat reply, and how many tasks one steal grant moves.
	// Default 4.
	MaxTasksPerAck int

	// ReplicateParamsLimit is the largest Params payload replicated
	// with a job description. Larger payloads are file archives, which
	// the paper does not replicate; a replica promoting such a job asks
	// the client to resend on synchronization. Default 64 KiB.
	ReplicateParamsLimit int

	// OnJobFinished, when non-nil, is invoked each time a job first
	// reaches the finished state on this coordinator (experiment hook:
	// figures 9-11 plot exactly this counter over time).
	OnJobFinished func(call proto.CallID, at time.Time)

	// Shard, when non-nil and describing more than one ring, places
	// this coordinator in the sharded coordination layer: sessions
	// hashing to a foreign shard are redirected (ShardRedirect) instead
	// of served, dirty records are cross-replicated to the successor
	// shard, and the shards this coordinator's ring succeeds on the hash
	// circle are guarded — their sessions are adopted when their whole
	// ring goes silent. Coordinators is then this ring's member list
	// only; the paper's protocol runs unchanged inside the ring.
	Shard *shard.Map

	// ShardSyncPeriod is the period of cross-shard state propagation to
	// the successor shard. Zero means ReplicationPeriod.
	ShardSyncPeriod time.Duration

	// Policy names the scheduling policy (internal/sched): "fcfs"
	// (default, the paper's behaviour), "fastest-first", "deadline" or
	// "speculative". An unknown name logs and falls back to FCFS.
	Policy string

	// SpeculateFactor is the speculative policy's straggler threshold
	// k: an in-flight task is duplicated onto a different server once
	// its age exceeds k x the completion estimate. Zero means the
	// sched default (2).
	SpeculateFactor float64

	// WorkStealing, on a sharded coordinator, lets an idle shard
	// execute pending tasks of its successor shard: when the local
	// queue is empty while servers keep asking for work, a
	// StealRequest is sent and granted jobs run here, their results
	// routed home over the existing ShardSync path.
	WorkStealing bool

	// Obs, when non-nil, receives the coordinator's live metrics
	// (counters and gauges labeled node="<self>", plus the scheduling
	// engine's queue and speed gauges) and CallID-correlated span
	// events (enqueue, dispatch, result, requeue, speculate, steal,
	// redirect) on the observer's ring. All instruments are written
	// from the event loop with plain atomic stores; nil costs nothing.
	Obs *obs.Observer

	// PullOnly restores the paper's pure-timer protocol: every pull is
	// answered once, at once, and work or a result that turns up later
	// waits for the peer's next pull. The zero value answers late (see
	// the package comment): a call's latency is then the work, not two
	// timers. Only the simulator builder (internal/cluster) sets it, so
	// that the simulated figures keep reproducing the protocol the paper
	// measured. It cannot be inferred: a node.Env looks the same to a
	// coordinator reproducing a figure and to one serving calls — a late
	// reply is an ordinary Send in both — and it is not a deployment
	// choice, which is why no flag or environment variable reaches it.
	PullOnly bool
}

func (c *Config) applyDefaults() {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = detector.DefaultTimeout
	}
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = detector.DefaultPeriod
	}
	if c.MaxTasksPerAck <= 0 {
		c.MaxTasksPerAck = 4
	}
	if c.ReplicateParamsLimit <= 0 {
		c.ReplicateParamsLimit = 64 << 10
	}
}

// Coordinator is the middle-tier node handler. Its fields are
// loop-private: every access must come from handler code or be
// marshalled through rt.Do/DoAsync.
//
//rpcv:loop-owned
type Coordinator struct {
	cfg Config
	env node.Env

	store  *db.DB
	dbEng  node.SerialResource // serializes database operation latency
	epoch  uint64              // incarnation counter, persisted, stamps replica updates
	coords []proto.NodeID

	// Multi-loop partitioning (node.PartitionedHandler): loopIdx/loopN
	// locate this instance among the per-core partitions of one
	// coordinator process; loopMap is the shared session placement.
	// loopN == 0 means the classic unpartitioned coordinator. Every
	// partition is an independent Coordinator over the same durable
	// store — disjoint session slices, disjoint job keys, per-instance
	// epoch keys — so each keeps the no-locking discipline on its own
	// loop. parts (receiver instance only) lists all partitions.
	loopIdx int
	loopN   int
	loopMap *shard.LoopMap
	parts   []*Coordinator

	// Scheduling state (volatile; rebuilt from the store on restart).
	// The engine owns the pending queue, policy order, admission gate
	// and per-server speed estimates (internal/sched).
	eng     *sched.Engine
	ongoing map[proto.CallID]ongoingInfo // assigned, awaiting result
	// spec tracks the redundant instance of each speculatively
	// duplicated call (at most one duplicate per call, on a server
	// other than the primary's).
	spec      map[proto.CallID]ongoingInfo
	specTimer node.Timer
	byServer  map[proto.NodeID]map[proto.CallID]bool // reverse index
	// fromPredecessor marks calls learned as "ongoing" via replication:
	// they are not scheduled until the predecessor is suspected.
	fromPredecessor map[proto.CallID]bool
	// queuedAt stamps each pending call's (re)queue time so the
	// dispatch-latency histogram — queue wait, the fleet monitor's
	// per-shard SLO signal — can be observed at assignment. Maintained
	// only when observability is on.
	queuedAt map[proto.CallID]time.Time

	servers *detector.Monitor // suspicion of servers
	ring    *detector.Monitor // suspicion of fellow coordinators

	successor   proto.NodeID
	predecessor proto.NodeID // last coordinator we received an update from
	// dirty holds the records the ring successor has not acknowledged
	// in their current state, wdirty the sessions whose collected
	// watermark it has not. Both stay empty in a ring of one.
	dirty       dirtySet[proto.CallID]
	wdirty      dirtySet[sessionKey]
	beater      *detector.Beater
	replTimer   node.Timer
	replPending bool      // a round is in flight (awaiting ack)
	replRound   uint64    // monotonic round counter (stamps updates)
	replStart   time.Time // measurement of the in-flight round
	lastReplDur time.Duration
	replRounds  uint64

	// Sharded coordination layer (nil/empty when unsharded).
	smap     *shard.Map
	shardIdx int   // this coordinator's shard; -1 when unsharded
	guarded  []int // shards whose hash-circle successor is this shard
	guard    *detector.Monitor
	adopted  map[int]bool
	// fromShard maps calls learned via cross-shard sync to their source
	// shard; they are held passively (never scheduled) until the source
	// shard is adopted.
	fromShard map[proto.CallID]int

	// Cross-shard replication round state, mirroring the intra-ring
	// one.
	xdirty    dirtySet[proto.CallID]
	xwdirty   dirtySet[sessionKey]
	xpending  bool
	xround    uint64
	xtargetIx int // rotates through successor-ring members on silence
	xtimer    node.Timer
	xrounds   uint64

	// Cross-shard work stealing state (thief and victim sides).
	stealPending bool
	stealRound   uint64
	stealIx      int       // rotates through successor-ring members
	lastStealAt  time.Time // throttles request bursts
	// stolenOut tracks pending jobs granted away to an idle
	// predecessor shard, for timeout reclaim.
	stolenOut map[proto.CallID]stolenOutInfo

	// unwritten holds, per call, the payloads whose blob write failed:
	// the next persist of the call writes them again before any header
	// that would reference them.
	unwritten map[proto.CallID]jobParts

	// Collection (collect.go): each session's collected watermark, the
	// finished calls at or below one that a replication round still has
	// to carry, and what is gone from the table but not yet from the disk.
	collected map[sessionKey]proto.RPCSeq
	waiting   map[proto.CallID]bool
	gc        garbage

	// Late replies (late.go): the standing work offers, the result
	// subscriptions and the servers a TaskResultAck has gone to since
	// their last HeartbeatAck. Soft state of this incarnation, never
	// persisted or replicated, and always empty under Config.PullOnly.
	offers      offerBook
	subs        map[sessionKey]subscription
	resultAcked map[proto.NodeID]bool

	stopped bool

	// Metrics.
	finished        int
	jobsAccepted    int
	submitsReceived int
	dupResults      int
	rescheduled     int
	redirects       int
	adoptions       int
	speculated      int // redundant instances issued
	specWins        int // results won by the speculative copy
	stolenIn        int // tasks this coordinator stole and ran locally
	stolenOutTotal  int // pending tasks granted away to a thief shard
	stolenHome      int // stolen tasks whose result came home via ShardSync
	pushedTasks     int // assignments sent as late replies to a standing offer
	pushedResults   int // results sent as late replies to a subscription
	collectedJobs   int // finished calls deleted below their session's watermark
	staleMsgs       int // messages about a collected call, answered and dropped

	// cm mirrors the counters above into Config.Obs (every instrument
	// is a nil-safe no-op when observability is off).
	cm coordMetrics
}

// coordMetrics holds the coordinator's obs instruments.
type coordMetrics struct {
	submits, accepted, finished, dups          *obs.Counter
	redirects, adoptions, speculated, specWins *obs.Counter
	stolenIn, stolenOut, stolenHome            *obs.Counter
	requeues                                   [len(requeueReasonNames)]*obs.Counter
	persistErrs                                [len(persistPartNames)]*obs.Counter
	assignedPull, assignedPush                 *obs.Counter
	resultsPoll, resultsPush, offersExpired    *obs.Counter
	sessions, inflight, specInflight, shardIdx *obs.Gauge
	idleSlots, jobs, waiting                   *obs.Gauge
	collected                                  *obs.Counter
	stale                                      func(kind string) *obs.Counter
	dispatchLat                                *obs.Histogram
}

type ongoingInfo struct {
	server     proto.NodeID
	task       proto.TaskID
	assignedAt time.Time
}

// stolenOutInfo records one job granted to a thief shard.
type stolenOutInfo struct {
	shard     int
	grantedAt time.Time
}

// sessionKey identifies one (user, session) pair.
type sessionKey struct {
	user    proto.UserID
	session proto.SessionID
}

// New creates a coordinator handler. Call sim/rt Start to boot it.
func New(cfg Config) *Coordinator {
	cfg.applyDefaults()
	return &Coordinator{cfg: cfg}
}

var (
	_ node.Handler            = (*Coordinator)(nil)
	_ node.PartitionedHandler = (*Coordinator)(nil)
)

// Partition implements node.PartitionedHandler: the coordinator splits
// into n independent instances, one per event loop, each owning the
// sessions shard.LoopMap pins to its loop. The runtime routes every
// session-scoped message to the owning partition and broadcasts
// node-scoped server traffic (heartbeats, server syncs) to all of
// them, so each partition schedules against the full server pool but
// only for its own sessions. Critically this multiplies the modeled
// database: each partition has its own db.DB and SerialResource, so
// DB-bound submit throughput scales with loops — the same trick the
// shard layer plays across processes, one level down.
//
// Called once, before Start, by rt.Start.
func (c *Coordinator) Partition(n int) []node.Handler {
	if n < 1 {
		n = 1
	}
	c.loopIdx, c.loopN = 0, n
	c.loopMap = shard.NewLoopMap(n)
	c.parts = make([]*Coordinator, n)
	c.parts[0] = c
	out := make([]node.Handler, n)
	out[0] = c
	for j := 1; j < n; j++ {
		p := New(c.cfg)
		p.loopIdx, p.loopN = j, n
		p.loopMap = c.loopMap
		c.parts[j] = p
		out[j] = p
	}
	return out
}

// Partitions returns every per-loop coordinator instance hosted by the
// receiver's process: the receiver itself when unpartitioned, else the
// slice Partition built (index 0 is the receiver). Snapshot accessors
// (StatsNow & co) on instance j must be marshalled through the j-th
// loop (rt.DoOn).
func (c *Coordinator) Partitions() []*Coordinator {
	if len(c.parts) == 0 {
		return []*Coordinator{c}
	}
	return c.parts
}

// ownsLoop reports whether this partition owns a session's calls under
// the loop placement. Unpartitioned coordinators own everything.
func (c *Coordinator) ownsLoop(call proto.CallID) bool {
	return c.loopN <= 1 || c.loopMap.OwnerOf(call) == c.loopIdx
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

// Start implements node.Handler. On restart it reloads the job database
// from the local disk (the durable MySQL role) and resumes with a new
// epoch; scheduling state is conservatively rebuilt: previously ongoing
// tasks whose results were not stored become pending again (their
// servers will be re-observed or re-suspected through heartbeats).
//
//rpcv:loop-only
func (c *Coordinator) Start(env node.Env) {
	c.env = env
	c.stopped = false
	c.store = db.New(c.cfg.DBCost)
	c.initObs(env)
	eng, err := sched.New(sched.Config{
		Policy:          c.cfg.Policy,
		SpeculateFactor: c.cfg.SpeculateFactor,
		Obs:             c.cfg.Obs.Registry(),
		Node:            env.Self(),
	})
	if err != nil {
		env.Logf("coordinator: %v; falling back to fcfs", err)
		eng, _ = sched.New(sched.Config{})
	}
	c.eng = eng
	c.ongoing = make(map[proto.CallID]ongoingInfo)
	c.spec = make(map[proto.CallID]ongoingInfo)
	c.byServer = make(map[proto.NodeID]map[proto.CallID]bool)
	c.fromPredecessor = make(map[proto.CallID]bool)
	c.queuedAt = make(map[proto.CallID]time.Time)
	c.dirty = newDirtySet[proto.CallID]()
	c.wdirty = newDirtySet[sessionKey]()
	c.collected = make(map[sessionKey]proto.RPCSeq)
	c.waiting = make(map[proto.CallID]bool)
	c.gc = garbage{durable: make(map[sessionKey]proto.RPCSeq)}
	c.stolenOut = make(map[proto.CallID]stolenOutInfo)
	c.unwritten = make(map[proto.CallID]jobParts)
	c.offers = newOfferBook()
	c.subs = make(map[sessionKey]subscription)
	c.resultAcked = make(map[proto.NodeID]bool)
	c.stealPending = false
	c.dbEng = node.SerialResource{}
	c.replPending = false
	c.successor = ""
	c.predecessor = ""

	c.coords = statesync.MergeNodeLists(c.cfg.Coordinators, []proto.NodeID{env.Self()})

	c.smap = nil
	c.shardIdx = -1
	c.guarded = nil
	c.adopted = make(map[int]bool)
	c.fromShard = make(map[proto.CallID]int)
	c.xdirty = newDirtySet[proto.CallID]()
	c.xwdirty = newDirtySet[sessionKey]()
	c.xpending = false
	if m := c.cfg.Shard; m != nil && m.Shards() > 1 {
		if idx := m.RingOf(env.Self()); idx >= 0 {
			c.smap = m
			c.shardIdx = idx
			for s := 0; s < m.Shards(); s++ {
				if s != idx && m.SuccessorShard(s) == idx {
					c.guarded = append(c.guarded, s)
				}
			}
		} else {
			env.Logf("coordinator: not a member of the shard map, running unsharded")
		}
	}

	c.cm.shardIdx.SetInt(c.shardIdx)

	c.loadEpoch()
	c.loadMarks()
	c.loadStore()

	c.servers = detector.NewMonitor(env, detector.MonitorConfig{
		Timeout:   c.cfg.HeartbeatTimeout,
		OnSuspect: c.onServerSuspected,
	})
	c.ring = detector.NewMonitor(env, detector.MonitorConfig{
		Timeout:   c.cfg.HeartbeatTimeout,
		OnSuspect: c.onCoordinatorSuspected,
	})
	if len(c.guarded) > 0 {
		// Guard the predecessor shards from boot: a ring that is already
		// dead (or dies before ever speaking to us) must still be
		// adopted once the suspicion timeout elapses.
		c.guard = detector.NewMonitor(env, detector.MonitorConfig{
			Timeout:   c.cfg.HeartbeatTimeout,
			OnSuspect: c.onGuardSuspected,
		})
		for _, s := range c.guarded {
			for _, id := range c.smap.Ring(s) {
				c.guard.Watch(id)
			}
		}
	}

	c.scheduleReplication()
	c.scheduleShardSync()
	c.scheduleSpeculation()
	// Ring heartbeats: probe fellow coordinators every period so that
	// ring suspicion (and recovery from wrong suspicion) works on the
	// heartbeat timescale even when the replication period is longer.
	c.beater = detector.NewBeater(env, c.cfg.HeartbeatPeriod, c.ringBeat)
}

// initObs resolves the coordinator's obs instruments. A nil registry
// yields nil instruments whose methods no-op, so call sites stay
// unconditional.
func (c *Coordinator) initObs(env node.Env) {
	reg := c.cfg.Obs.Registry()
	ls := []obs.Label{obs.L("node", string(env.Self()))}
	if c.loopN > 1 {
		// Partitioned coordinators label per loop so the scrape shows
		// the per-core split; unpartitioned ones keep the historical
		// node-only series.
		ls = append(ls, obs.L("loop", strconv.Itoa(c.loopIdx)))
	}
	c.cm = coordMetrics{
		submits:      reg.Counter("rpcv_coord_submits_total", ls...),
		accepted:     reg.Counter("rpcv_coord_jobs_accepted_total", ls...),
		finished:     reg.Counter("rpcv_coord_finished_total", ls...),
		dups:         reg.Counter("rpcv_coord_dup_results_total", ls...),
		redirects:    reg.Counter("rpcv_coord_redirects_total", ls...),
		adoptions:    reg.Counter("rpcv_coord_adoptions_total", ls...),
		speculated:   reg.Counter("rpcv_coord_speculated_total", ls...),
		specWins:     reg.Counter("rpcv_coord_spec_wins_total", ls...),
		stolenIn:     reg.Counter("rpcv_coord_steals_in_total", ls...),
		stolenOut:    reg.Counter("rpcv_coord_steals_out_total", ls...),
		stolenHome:   reg.Counter("rpcv_coord_steals_home_total", ls...),
		sessions:     reg.Gauge("rpcv_coord_sessions", ls...),
		inflight:     reg.Gauge("rpcv_coord_inflight", ls...),
		specInflight: reg.Gauge("rpcv_coord_spec_inflight", ls...),
		shardIdx:     reg.Gauge("rpcv_coord_shard_index", ls...),

		assignedPull:  reg.Counter("rpcv_coord_assigned_total", with(ls, "via", "pull")...),
		assignedPush:  reg.Counter("rpcv_coord_assigned_total", with(ls, "via", "push")...),
		resultsPoll:   reg.Counter("rpcv_coord_results_sent_total", with(ls, "via", "poll")...),
		resultsPush:   reg.Counter("rpcv_coord_results_sent_total", with(ls, "via", "push")...),
		offersExpired: reg.Counter("rpcv_coord_offers_expired_total", ls...),
		idleSlots:     reg.Gauge("rpcv_coord_idle_slots", ls...),

		collected: reg.Counter("rpcv_coord_collected_total", ls...),
		jobs:      reg.Gauge("rpcv_coord_jobs", ls...),
		waiting:   reg.Gauge("rpcv_coord_collect_waiting", ls...),
		stale: func(kind string) *obs.Counter {
			return reg.Counter("rpcv_coord_stale_total", with(ls, "kind", kind)...)
		},
	}
	if reg != nil {
		c.cm.dispatchLat = reg.Histogram("rpcv_coord_dispatch_latency_ns", ls...)
	}
	for part, name := range persistPartNames {
		c.cm.persistErrs[part] = reg.Counter("rpcv_coord_persist_errors_total", with(ls, "part", name)...)
	}
	for reason, name := range requeueReasonNames {
		c.cm.requeues[reason] = reg.Counter("rpcv_coord_requeues_total", with(ls, "reason", name)...)
	}
}

// with returns ls plus one more label, for the series that split a
// counter by path.
func with(ls []obs.Label, key, value string) []obs.Label {
	return append(slices.Clone(ls), obs.L(key, value))
}

// trace stamps one span for call on this coordinator's ring (no-op
// without observability).
func (c *Coordinator) trace(call proto.CallID, stage obs.Stage, detail string) {
	if t := c.cfg.Obs.Tracer(); t != nil {
		t.EventAt(c.env.Now(), call, stage, detail)
	}
}

// noteInflight refreshes the in-flight gauges after assignment
// bookkeeping changes.
func (c *Coordinator) noteInflight() {
	c.cm.inflight.SetInt(len(c.ongoing))
	c.cm.specInflight.SetInt(len(c.spec))
}

// ringBeat sends a coordinator-role heartbeat to the raw ring successor
// (ignoring suspicion, so wrongly suspected coordinators are
// re-observed when they answer) and to the effective successor when it
// differs.
func (c *Coordinator) ringBeat() {
	hb := &proto.Heartbeat{From: c.env.Self(), Role: proto.RoleCoordinator}
	raw := statesync.Successor(c.env.Self(), c.coords, nil)
	if raw != "" {
		c.env.Send(raw, hb)
		if eff := c.Successor(); eff != "" && eff != raw {
			c.env.Send(eff, hb)
		}
	}
	// Probe the guarded shards' coordinators too: their acks feed the
	// guard monitor, so a wrongly suspected ring is re-trusted and a
	// truly dead one is adopted on the heartbeat timescale.
	for _, s := range c.guarded {
		for _, id := range c.smap.Ring(s) {
			c.env.Send(id, hb)
		}
	}
}

// Stop implements node.Handler.
//
//rpcv:loop-only
func (c *Coordinator) Stop() {
	c.stopped = true
	if c.servers != nil {
		c.servers.Close()
	}
	if c.ring != nil {
		c.ring.Close()
	}
	if c.guard != nil {
		c.guard.Close()
	}
	if c.replTimer != nil {
		c.replTimer.Stop()
	}
	if c.xtimer != nil {
		c.xtimer.Stop()
	}
	if c.specTimer != nil {
		c.specTimer.Stop()
	}
	if c.gc.timer != nil {
		c.gc.timer.Stop()
	}
	if c.beater != nil {
		c.beater.Close()
	}
}

// epochKey is the durable key holding this instance's incarnation
// counter. Partition 0 keeps the historical key so single-loop state
// restarts unchanged under multi-loop (and vice versa); partitions
// j > 0 use a suffixed key — epochs are per-instance because each
// partition replicates and stamps updates independently.
func (c *Coordinator) epochKey() string {
	if c.loopIdx > 0 {
		return fmt.Sprintf("coord/epoch.%d", c.loopIdx)
	}
	return "coord/epoch"
}

func (c *Coordinator) loadEpoch() {
	if raw, ok := c.env.Disk().Read(c.epochKey()); ok && len(raw) == 8 {
		for i := 0; i < 8; i++ {
			c.epoch |= uint64(raw[i]) << (8 * i)
		}
	}
	c.epoch++
	raw := make([]byte, 8)
	for i := 0; i < 8; i++ {
		raw[i] = byte(c.epoch >> (8 * i))
	}
	if err := c.env.Disk().Write(c.epochKey(), raw); err != nil {
		c.env.Logf("coordinator: persist epoch: %v", err)
	}
}

// The persisted layout of one job, after the paper's "job descriptions
// in a database, for fast management, and file archives in an optimized
// file system": a small mutable header under coord/job/<call>,
// rewritten on every state transition, and for each payload of at least
// blobMin bytes an immutable blob of the raw bytes under
// coord/blob/<call>/p (params) or /o (output), written once. A smaller
// payload stays inline in the header, which is then byte for byte the
// whole record earlier builds persisted.
const (
	jobPrefix  = "coord/job/"
	blobPrefix = "coord/blob/"

	// blobMin is the tree's one description/archive line.
	blobMin = proto.BlobMin
)

// jobParts is a set of a record's payloads.
type jobParts = proto.JobPayloads

const (
	headerOnly jobParts = 0
	partParams          = proto.JobParams
	partOutput          = proto.JobOutput
	allParts            = partParams | partOutput
)

// persistPartNames labels the persist-error counters by the write that
// failed: a payload's blob, or the header (the write that is no part).
var persistPartNames = [...]string{headerOnly: "header", partParams: "params", partOutput: "output"}

// blob describes one payload's place in the layout.
type blob struct {
	part   jobParts
	suffix string
	of     func(*proto.JobRecord) *[]byte
}

var blobs = [...]blob{
	{partParams, "/p", func(r *proto.JobRecord) *[]byte { return &r.Params }},
	{partOutput, "/o", func(r *proto.JobRecord) *[]byte { return &r.Output }},
}

// changedParts names the payloads of rec that differ from those of the
// record it replaces (nil: none did), which is what a persist of rec
// must write. A payload carried over from old shares its backing array,
// so the comparison is a pointer check.
func changedParts(old, rec *proto.JobRecord) jobParts {
	if old == nil {
		return allParts
	}
	var parts jobParts
	for _, b := range blobs {
		if !bytes.Equal(*b.of(old), *b.of(rec)) {
			parts |= b.part
		}
	}
	return parts
}

func (c *Coordinator) loadStore() {
	var dec proto.Decoder // one decoder: recovery interns repeated IDs
	disk := c.env.Disk()
	for _, key := range disk.Keys(jobPrefix) {
		raw, ok := disk.Read(key)
		if !ok {
			continue
		}
		sj, err := dec.DecodeStoredJob(raw)
		if err != nil {
			c.env.Logf("coordinator: corrupt job record %s: %v", key, err)
			continue
		}
		rec := sj.Rec
		if !c.ownsLoop(rec.Call) {
			// Another partition's session: its owner reloads it. All
			// partitions share one durable store, so the key space is
			// split by the same placement the runtime routes with.
			continue
		}
		// Join the blobs the header measured. One that is missing or of
		// another length was torn or never became durable: the record is
		// as corrupt as one that fails to decode (the WAL CRCs what it
		// replays; the length is the header's own check), and the
		// client's resync resends the call. A blob no header references
		// — an output that landed before a header saying so — is never
		// read.
		intact := true
		for _, b := range blobs {
			if sj.External&b.part == 0 {
				continue
			}
			payload, ok := disk.Read(blobPrefix + rec.Call.String() + b.suffix)
			if !ok || len(payload) != sj.Len(b.part) {
				if _, status := c.lookup(rec.Call); status == callCollected {
					// Not corruption: a collection the crash cut short,
					// whose blobs go first. Finish it.
					c.gc.jobs = append(c.gc.jobs, rec.Call)
				} else {
					c.env.Logf("coordinator: corrupt job record %s: blob %s is %d bytes (present %v), header says %d",
						key, b.suffix, len(payload), ok, sj.Len(b.part))
				}
				intact = false
				break
			}
			*b.of(rec) = payload
		}
		if !intact {
			continue
		}
		if sj.External == 0 && (len(rec.Params) >= blobMin || len(rec.Output) >= blobMin) {
			// A whole record from before the split: rewrite it in the
			// one layout, so nothing but this branch ever reads the old.
			c.persistJob(rec, allParts)
		}
		if rec.State == proto.TaskOngoing {
			// The assignment did not survive the crash; schedule anew.
			rec.State = proto.TaskPending
		}
		c.put(rec)
		if rec.State == proto.TaskPending {
			c.enqueue(rec.Call)
		}
		// markDirty (not a bare assignment) so a restart also re-feeds
		// the cross-shard dirty set: the successor shard may have missed
		// rounds while we were down.
		c.markDirty(rec.Call)
	}
	c.jobsAccepted = c.store.Len()
	c.sweep()
}

// persistJob makes rec's current state durable: always its header, and
// first the blob of each payload in fresh that is large enough to have
// one. fresh names what this transition changed — the params at submit,
// the output when the result lands, nothing on assign, speculate,
// requeue or steal, whatever differs from the replaced record on the
// replication paths — so each payload is written once, not once per
// transition. Where the disk batches, blobs are staged with WriteAsync
// and the header goes by the synchronous Write behind them: staging
// order is commit order, so the one group commit the Write waits for
// covers the call's blobs too.
//
// A failed write is logged and counted, never returned: the handler
// acks regardless and the protocol's resyncs repair what a crash would
// then lose. But a header is not written after a blob of its own that
// is already known to have failed, and a failed blob is retried ahead
// of the call's next header, so no header written here references a
// blob this incarnation knows to be bad. (A failure reported only after
// the header went out — a group commit's callback — leaves a header
// whose blob loadStore finds missing or short, and skips.)
//
// The store takes ownership of what it is handed: rec.Params and
// rec.Output are shared with it from here on, never copied, which is
// why nothing may modify a stored record's payload bytes in place.
func (c *Coordinator) persistJob(rec *proto.JobRecord, fresh jobParts) {
	if retry, ok := c.unwritten[rec.Call]; ok {
		fresh |= retry
		delete(c.unwritten, rec.Call)
	}
	call := rec.Call.String()
	var external jobParts
	for _, b := range blobs {
		if len(*b.of(rec)) >= blobMin {
			external |= b.part
		}
	}
	// Encode before staging anything: the less time between a staged
	// blob and its header, the surer one group commit takes both.
	header := proto.EncodeJobHeader(rec, external)
	// What collection left for the disk rides this header's commit.
	c.flushGarbage()
	for _, b := range blobs {
		if external&fresh&b.part == 0 {
			continue
		}
		if !c.writeBlob(rec.Call, b, blobPrefix+call+b.suffix, *b.of(rec)) {
			return
		}
	}
	if err := c.env.Disk().Write(jobPrefix+call, header); err != nil {
		c.persistFailed(rec.Call, headerOnly, err)
	}
}

// writeBlob stores one payload, reporting false if the write is already
// known to have failed when it returns.
func (c *Coordinator) writeBlob(call proto.CallID, b blob, key string, payload []byte) bool {
	ok := true
	node.WriteAsync(c.env.Disk(), key, payload, func(err error) {
		if err != nil {
			ok = false
			c.unwritten[call] |= b.part
			c.persistFailed(call, b.part, err)
		}
	})
	return ok
}

func (c *Coordinator) persistFailed(call proto.CallID, part jobParts, err error) {
	c.cm.persistErrs[part].Inc()
	c.env.Logf("coordinator: persist job %s (%s): %v", call, persistPartNames[part], err)
}

// ---------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------

// Receive implements node.Handler.
//
//rpcv:loop-only
func (c *Coordinator) Receive(from proto.NodeID, msg proto.Message) {
	if c.stopped {
		return
	}
	switch m := msg.(type) {
	case *proto.Submit:
		c.handleSubmit(from, m)
	case *proto.Poll:
		c.handlePoll(from, m)
	case *proto.SyncRequest:
		c.handleSyncRequest(from, m)
	case *proto.FetchResult:
		c.handleFetchResult(from, m)
	case *proto.Heartbeat:
		c.handleHeartbeat(from, m)
	case *proto.TaskResult:
		c.handleTaskResult(from, m)
	case *proto.ServerSync:
		c.handleServerSync(from, m)
	case *proto.HeartbeatAck:
		c.handleHeartbeatAck(from, m)
	case *proto.ReplicaUpdate:
		c.handleReplicaUpdate(from, m)
	case *proto.ReplicaAck:
		c.handleReplicaAck(from, m)
	case *proto.ShardMapRequest:
		c.handleShardMapRequest(from, m)
	case *proto.ShardSync:
		c.handleShardSync(from, m)
	case *proto.ShardSyncAck:
		c.handleShardSyncAck(from, m)
	case *proto.StealRequest:
		c.handleStealRequest(from, m)
	case *proto.StealGrant:
		c.handleStealGrant(from, m)
	default:
		c.env.Logf("coordinator: unexpected %s from %s", msg.Kind(), from)
	}
	// Whatever the message queued — a submission, a requeue after a
	// server sync, a steal grant, a replica's update — goes out now if a
	// server's pull is still waiting for it.
	c.dispatch()
}

// afterDBCost schedules fn after the virtual latency accumulated by
// database operations, so DB time is visible on the clock (this is the
// effect that makes figure 5's replication DB-bound). The database is a
// serial resource: concurrent batches queue behind one another.
func (c *Coordinator) afterDBCost(fn func()) {
	if cost := c.store.DrainCost(); cost > 0 {
		c.env.After(c.dbEng.Acquire(c.env.Now(), cost), fn)
		return
	}
	fn()
}

// put writes rec to the job table (whose session index also answers
// maxSeq and the result polls) and refreshes the sessions gauge.
func (c *Coordinator) put(rec *proto.JobRecord) {
	c.store.Put(rec)
	c.cm.sessions.SetInt(c.store.Sessions())
	c.cm.jobs.SetInt(c.store.Len())
}

// ---------------------------------------------------------------------
// Client interactions
// ---------------------------------------------------------------------

func (c *Coordinator) handleSubmit(from proto.NodeID, m *proto.Submit) {
	c.submitsReceived++
	c.cm.submits.Inc()
	if !c.ownsSession(m.Call.User, m.Call.Session) {
		c.sendRedirect(from, m.Call.User, m.Call.Session, m.Call)
		return
	}
	if _, status := c.lookup(m.Call); status != callUnknown {
		// Duplicate submission (client retry or resend after sync), of a
		// call still here or of one collected: acknowledge with the
		// current state, do not reset the job — and never run it again.
		// Re-reading the stored record is one charged lookup; the
		// existence check itself rides on the insert's key conflict.
		if status == callCollected {
			c.stale(m)
		}
		c.store.Get(m.Call)
		c.afterDBCost(func() {
			c.env.Send(from, &proto.SubmitAck{Call: m.Call, MaxSeq: c.maxSeq(m.Call.User, m.Call.Session)})
		})
		return
	}
	rec := &proto.JobRecord{
		Call:       m.Call,
		Service:    m.Service,
		Params:     m.Params,
		ExecTime:   m.ExecTime,
		ResultSize: m.ResultSize,
		State:      proto.TaskPending,
	}
	if m.Deadline > 0 {
		rec.Deadline = c.env.Now().Add(m.Deadline)
	}
	c.put(rec)
	c.persistJob(rec, partParams)
	c.enqueue(m.Call)
	c.trace(m.Call, obs.StageEnqueue, string(from))
	c.markDirty(m.Call)
	c.afterDBCost(func() {
		c.jobsAccepted++
		c.cm.accepted.Inc()
		c.env.Send(from, &proto.SubmitAck{Call: m.Call, MaxSeq: c.maxSeq(m.Call.User, m.Call.Session)})
	})
}

// resultOf is a finished job's result as a client receives it, in a
// poll's reply, a late reply or a fetch.
func resultOf(rec *proto.JobRecord) proto.Result {
	return proto.Result{Call: rec.Call, Output: rec.Output, Err: rec.ResultErr, Server: rec.Server}
}

// maxSeq returns the indexed maximum timestamp known for a session. The
// collected watermark is its floor: the calls below it were here.
func (c *Coordinator) maxSeq(user proto.UserID, session proto.SessionID) proto.RPCSeq {
	return max(c.store.MaxSeq(user, session), c.collected[sessionKey{user, session}])
}

func (c *Coordinator) handlePoll(from proto.NodeID, m *proto.Poll) {
	if !c.ownsSession(m.User, m.Session) {
		c.sendRedirect(from, m.User, m.Session, proto.CallID{})
		return
	}
	// The watermark first: the client holds every result in 1..Ack, so
	// the finished calls down there are collected, and no later Poll —
	// however low its Ack — is answered from below it.
	key := sessionKey{m.User, m.Session}
	c.acknowledge(key, m.Ack, true)
	// The reply is every finished result outside {1..Ack} ∪ Have. Both
	// the session index and Have ascend, so one merge pass over the
	// records above the watermark decides membership.
	have := m.Have
	if !slices.IsSorted(have) { // the sender's contract; cheap to enforce
		have = slices.Sorted(slices.Values(have))
	}
	var out []proto.Result
	for rec := range c.store.SessionAfter(m.User, m.Session, c.collected[key]) {
		for len(have) > 0 && have[0] < rec.Call.Seq {
			have = have[1:]
		}
		if rec.State != proto.TaskFinished || (len(have) > 0 && have[0] == rec.Call.Seq) {
			continue
		}
		out = append(out, resultOf(rec))
	}
	c.cm.resultsPoll.Add(uint64(len(out)))
	c.subscribe(from, m)
	c.afterDBCost(func() {
		c.env.Send(from, &proto.Results{User: m.User, Session: m.Session, Results: out})
	})
}

// handleFetchResult serves one per-entry pull of a client rebuilding
// its state from the coordinator's logs. Each fetch is a charged
// database read: the per-entry cost (plus the round trip) is what makes
// this direction of figure 6 slower than the push direction.
func (c *Coordinator) handleFetchResult(from proto.NodeID, m *proto.FetchResult) {
	if !c.ownsSession(m.User, m.Session) {
		c.sendRedirect(from, m.User, m.Session, proto.CallID{})
		return
	}
	call := proto.CallID{User: m.User, Session: m.Session, Seq: m.Seq}
	rec, ok := c.store.Get(call)
	reply := &proto.FetchReply{Call: call, Known: ok}
	switch {
	case ok && rec.State == proto.TaskFinished:
		reply.Finished = true
		reply.Result = resultOf(rec)
	case !ok && m.Seq <= c.collected[sessionKey{m.User, m.Session}]:
		// Known, and finished as far as the session is concerned: it
		// held the result and said so. There is nothing left to send.
		reply.Known = true
		c.stale(m)
	}
	c.afterDBCost(func() { c.env.Send(from, reply) })
}

func (c *Coordinator) handleSyncRequest(from proto.NodeID, m *proto.SyncRequest) {
	if !c.ownsSession(m.User, m.Session) {
		c.sendRedirect(from, m.User, m.Session, proto.CallID{})
		return
	}
	// The reply always carries the exact list of known sequence
	// numbers: the client's log may have holes *below* its maximum
	// (a submission lost on the best-effort network), which a bare
	// max-timestamp comparison cannot reveal. Below the collected
	// watermark the watermark itself is the list: every call there was
	// known, finished and acknowledged.
	w := c.collected[sessionKey{m.User, m.Session}]
	known := c.store.SessionSeqs(m.User, m.Session)
	above, _ := slices.BinarySearch(known, w+1)
	reply := &proto.SyncReply{
		User:      m.User,
		Session:   m.Session,
		MaxSeq:    c.maxSeq(m.User, m.Session),
		Collected: w,
		Known:     known[above:],
	}
	c.afterDBCost(func() { c.env.Send(from, reply) })
}

// ---------------------------------------------------------------------
// Server interactions
// ---------------------------------------------------------------------

func (c *Coordinator) handleHeartbeat(from proto.NodeID, m *proto.Heartbeat) {
	switch m.Role {
	case proto.RoleServer:
		c.servers.Observe(from)
		// The admission gate weighs pool throughput by concurrent
		// capacity: in-flight here plus what this heartbeat offers.
		c.eng.NoteSlots(from, len(c.byServer[from])+m.Capacity)
	case proto.RoleCoordinator:
		// Only ring-mates join the intra-ring membership list; a
		// cross-shard probe is a guard sign of life, never a merge
		// (merging it would re-route the replication ring across
		// shards).
		if c.inMyRing(from) {
			c.ring.Observe(from)
			c.mergeCoords([]proto.NodeID{from})
		} else if c.guard != nil {
			c.guard.Observe(from)
		}
	}
	ack := &proto.HeartbeatAck{From: c.env.Self(), Coordinators: c.coords}
	idle := 0
	if m.WantWork && m.Capacity > 0 {
		ack.Tasks = c.assign(from, min(m.Capacity, c.cfg.MaxTasksPerAck))
		c.cm.assignedPull.Add(uint64(len(ack.Tasks)))
		if len(ack.Tasks) == 0 && c.eng.Len() == 0 {
			// An idle server and an empty queue: a sharded coordinator may
			// try to steal work from its successor shard.
			c.maybeSteal()
		}
		idle = m.Capacity - len(ack.Tasks)
	}
	if m.Role == proto.RoleServer {
		// What this pull leaves unused stands as the server's offer until
		// its next pull says otherwise.
		c.standingOffer(from, idle)
		if c.quietPull(from, len(ack.Tasks)) {
			return
		}
	}
	c.noteHeartbeatAck(from)
	c.afterDBCost(func() { c.env.Send(from, ack) })
}

// handleHeartbeatAck processes a fellow coordinator's answer to a ring
// heartbeat: a sign of life and a coordinator-list merge. Acks from a
// guarded shard's coordinator feed the guard monitor instead.
func (c *Coordinator) handleHeartbeatAck(from proto.NodeID, m *proto.HeartbeatAck) {
	if !c.inMyRing(from) {
		if c.guard != nil {
			c.guard.Observe(from)
		}
		return
	}
	c.ring.Observe(from)
	if len(m.Coordinators) > 0 {
		c.mergeCoords(c.ringOnly(m.Coordinators))
	}
}

// inMyRing reports whether a fellow coordinator shares this ring. When
// unsharded every coordinator does.
func (c *Coordinator) inMyRing(id proto.NodeID) bool {
	return c.smap == nil || c.smap.RingOf(id) == c.shardIdx
}

// ringOnly filters a merged coordinator list down to this ring's
// members (plus unknown IDs when unsharded).
func (c *Coordinator) ringOnly(ids []proto.NodeID) []proto.NodeID {
	if c.smap == nil {
		return ids
	}
	out := make([]proto.NodeID, 0, len(ids))
	for _, id := range ids {
		if c.smap.RingOf(id) == c.shardIdx {
			out = append(out, id)
		}
	}
	return out
}

// assign pops up to limit schedulable jobs from the engine (policy
// order, admission gate, speculative duplicates first) and binds them
// to server. It serves a pull (handleHeartbeat) and a late reply to one
// (dispatch) alike.
func (c *Coordinator) assign(server proto.NodeID, limit int) []proto.TaskAssignment {
	var out []proto.TaskAssignment
	now := c.env.Now()
	for limit > 0 {
		call, specDup, ok := c.eng.Pop(server, now)
		if !ok {
			break
		}
		rec, have := c.store.Peek(call)
		if specDup {
			// A redundant instance of an in-flight straggler: the
			// original must still be running on a different server and
			// no second duplicate may exist.
			if !have || rec.State != proto.TaskOngoing {
				continue
			}
			info, running := c.ongoing[call]
			if !running || info.server == server {
				continue
			}
			if _, dup := c.spec[call]; dup {
				continue
			}
			rec.Instance++
			c.put(rec)
			c.persistJob(rec, headerOnly)
			task := proto.TaskID{Call: call, Instance: rec.Instance}
			c.spec[call] = ongoingInfo{server: server, task: task, assignedAt: now}
			c.bindToServer(server, call)
			c.markDirty(call)
			c.speculated++
			c.cm.speculated.Inc()
			c.trace(call, obs.StageSpeculate, string(server))
			out = append(out, proto.TaskAssignment{
				Task:       task,
				Service:    rec.Service,
				Params:     rec.Params,
				ExecTime:   rec.ExecTime,
				ResultSize: rec.ResultSize,
			})
			limit--
			continue
		}
		if !have || rec.State != proto.TaskPending {
			continue // finished or vanished while queued
		}
		if rec.Params == nil && rec.Service == "" {
			continue // placeholder learned via replication without data
		}
		rec.State = proto.TaskOngoing
		rec.Instance++
		rec.Server = server
		c.put(rec)
		c.persistJob(rec, headerOnly)
		task := proto.TaskID{Call: call, Instance: rec.Instance}
		c.ongoing[call] = ongoingInfo{server: server, task: task, assignedAt: now}
		c.bindToServer(server, call)
		c.markDirty(call)
		if at, ok := c.queuedAt[call]; ok {
			c.cm.dispatchLat.ObserveDuration(now.Sub(at))
			delete(c.queuedAt, call)
		}
		c.trace(call, obs.StageDispatch, string(server))
		out = append(out, proto.TaskAssignment{
			Task:       task,
			Service:    rec.Service,
			Params:     rec.Params,
			ExecTime:   rec.ExecTime,
			ResultSize: rec.ResultSize,
		})
		limit--
	}
	c.noteInflight()
	return out
}

// bindToServer indexes an assignment under its server and watches the
// server for suspicion.
func (c *Coordinator) bindToServer(server proto.NodeID, call proto.CallID) {
	if c.byServer[server] == nil {
		c.byServer[server] = make(map[proto.CallID]bool)
	}
	c.byServer[server][call] = true
	c.servers.Watch(server)
}

func (c *Coordinator) handleTaskResult(from proto.NodeID, m *proto.TaskResult) {
	c.servers.Observe(from)
	c.noteResultAck(from) // every path below acknowledges the result
	rec, status := c.lookup(m.Task.Call)
	switch {
	case status == callUnknown:
		// Result for a job we never saw (e.g. we are a fresh replica):
		// accept it — at-least-once semantics mean results are precious.
		rec = &proto.JobRecord{Call: m.Task.Call, Instance: m.Task.Instance}
	case status == callCollected:
		// The client holds this call's result already: a late duplicate.
		c.stale(m)
		c.env.Send(from, &proto.TaskResultAck{Task: m.Task})
		return
	case rec.State == proto.TaskFinished:
		c.dupResults++
		c.cm.dups.Inc()
		c.env.Send(from, &proto.TaskResultAck{Task: m.Task})
		return
	}
	// Feed the speed estimator before the assignment bookkeeping is
	// cleared.
	if info, on := c.ongoing[m.Task.Call]; on && info.server == from {
		c.observeCompletion(from, rec, info, m.Exec)
	} else if info, on := c.spec[m.Task.Call]; on && info.server == from {
		c.observeCompletion(from, rec, info, m.Exec)
		c.specWins++
		c.cm.specWins.Inc()
	}
	rec.State = proto.TaskFinished
	rec.Output = m.Output
	rec.ResultErr = m.Err
	rec.Server = from
	c.put(rec)
	c.persistJob(rec, partOutput)
	c.clearOngoing(m.Task.Call, from)
	c.unqueue(m.Task.Call)
	c.markDirty(m.Task.Call)
	c.finished++
	c.cm.finished.Inc()
	c.trace(m.Task.Call, obs.StageResult, string(from))
	if c.cfg.OnJobFinished != nil {
		c.cfg.OnJobFinished(m.Task.Call, c.env.Now())
	}
	// A session that polled lately gets the result now, as one more
	// reply to that poll, rather than at its next one.
	client, push := c.subscriber(rec.Call)
	if push {
		c.pushedResults++
		c.cm.resultsPush.Inc()
	}
	c.afterDBCost(func() {
		if push {
			c.env.Send(client, &proto.Results{User: rec.Call.User, Session: rec.Call.Session,
				Results: []proto.Result{resultOf(rec)}})
		}
		c.env.Send(from, &proto.TaskResultAck{Task: m.Task})
	})
}

// observeCompletion feeds one finished execution into the speed
// estimator: prefer the server's measured execution duration; fall
// back to the assignment-to-result clock (which crash downtimes and
// upload retries inflate) when the result does not carry one.
func (c *Coordinator) observeCompletion(server proto.NodeID, rec *proto.JobRecord, info ongoingInfo, measured time.Duration) {
	actual := measured
	if actual <= 0 {
		actual = c.env.Now().Sub(info.assignedAt)
	}
	c.eng.ObserveCompletion(server, rec.ExecTime, actual)
}

func (c *Coordinator) handleServerSync(from proto.NodeID, m *proto.ServerSync) {
	c.servers.Observe(from)
	resend, drop := statesync.TaskDiff(m.Tasks, func(call proto.CallID) bool {
		rec, status := c.lookup(call)
		if status == callCollected {
			c.stale(m)
			return false // the server may forget it, as it may a stored result
		}
		return status == callUnknown || rec.State != proto.TaskFinished
	})

	// Peer-wise comparison, coordinator side: any assignment we believe
	// is ongoing at this server but that the server neither holds a
	// result for nor is executing died with a previous incarnation
	// (intermittent crash) — re-schedule it now instead of waiting for
	// a suspicion that will never come.
	alive := make(map[proto.TaskID]bool, len(m.Tasks)+len(m.Running))
	for _, t := range m.Tasks {
		alive[t] = true
	}
	for _, t := range m.Running {
		alive[t] = true
	}
	grace := 3 * c.cfg.HeartbeatPeriod
	for _, call := range sortedCalls(c.spec) {
		info := c.spec[call]
		if info.server != from || alive[info.task] {
			continue
		}
		if c.env.Now().Sub(info.assignedAt) < grace {
			continue
		}
		// A speculative duplicate died with the previous incarnation;
		// the primary instance is still out, so just drop the copy (a
		// future sweep may re-duplicate).
		delete(c.spec, call)
		if set := c.byServer[from]; set != nil {
			delete(set, call)
		}
	}
	for _, call := range sortedCalls(c.ongoing) {
		info := c.ongoing[call]
		if info.server != from || alive[info.task] {
			continue
		}
		if c.env.Now().Sub(info.assignedAt) < grace {
			// The assignment may still be in flight toward the server
			// (it raced the sync); give it a few heartbeats.
			continue
		}
		delete(c.ongoing, call)
		if set := c.byServer[from]; set != nil {
			delete(set, call)
		}
		if c.promoteSpeculative(call) {
			continue
		}
		c.requeue(call, requeueServerSync)
	}

	c.afterDBCost(func() {
		c.env.Send(from, &proto.ServerSyncReply{Resend: resend, Drop: drop})
	})
	if _, offering := c.offers.by[from]; len(m.Running) == 0 && !offering {
		// A server that synchronizes while running nothing — a fresh
		// or restarted one — asks for work only on its next beat; what
		// is queued need not wait a heartbeat period for that. One
		// slot is all a sync proves; a pull's larger offer stands.
		c.standingOffer(from, 1)
	}
}

// onServerSuspected implements the "on suspicion" replication strategy:
// schedule new instances of all RPC calls forwarded to the suspect. A
// call whose speculative duplicate survives on another server is
// promoted instead of re-queued; a duplicate lost with the suspect is
// simply dropped (the primary is still out).
func (c *Coordinator) onServerSuspected(server proto.NodeID) {
	// A suspect no longer counts as drain capacity in the admission
	// gate; it re-earns its speed estimate if it returns.
	c.eng.ForgetServer(server)
	if c.offers.drop(server) {
		c.cm.offersExpired.Inc()
		c.noteIdleSlots()
	}
	calls := c.byServer[server]
	if len(calls) == 0 {
		return
	}
	c.env.Logf("coordinator: suspect server %s, rescheduling %d calls", server, len(calls))
	for _, call := range sortedCalls(calls) {
		if info, ok := c.spec[call]; ok && info.server == server {
			delete(c.spec, call)
			continue
		}
		info, ok := c.ongoing[call]
		if !ok || info.server != server {
			continue
		}
		delete(c.ongoing, call)
		if c.promoteSpeculative(call) {
			continue
		}
		c.requeue(call, requeueServerSuspected)
	}
	delete(c.byServer, server)
	c.dispatch()
}

// promoteSpeculative upgrades a call's speculative duplicate to the
// primary assignment after the primary's server was lost. Reports
// whether a duplicate existed.
func (c *Coordinator) promoteSpeculative(call proto.CallID) bool {
	info, ok := c.spec[call]
	if !ok {
		return false
	}
	delete(c.spec, call)
	c.ongoing[call] = info
	c.noteInflight()
	return true
}

// clearOngoing drops every live assignment of the call once a result
// is stored. winner names the server whose result won ("" when the
// result arrived via replication or shard sync); every other holder of
// an instance is sent a best-effort TaskCancel so losing speculative
// copies stop wasting cycles — idempotently: a server that already
// executed just has its duplicate result deduplicated here later.
func (c *Coordinator) clearOngoing(call proto.CallID, winner proto.NodeID) {
	if info, ok := c.ongoing[call]; ok {
		delete(c.ongoing, call)
		if set := c.byServer[info.server]; set != nil {
			delete(set, call)
		}
		if info.server != winner {
			c.env.Send(info.server, &proto.TaskCancel{Task: info.task})
		}
	}
	if info, ok := c.spec[call]; ok {
		delete(c.spec, call)
		if set := c.byServer[info.server]; set != nil {
			delete(set, call)
		}
		if info.server != winner {
			c.env.Send(info.server, &proto.TaskCancel{Task: info.task})
		}
	}
	delete(c.fromPredecessor, call)
	delete(c.stolenOut, call)
	c.noteInflight()
}

// enqueue inserts one pending call into the scheduling engine with its
// record's metadata; the engine's membership check makes every
// insertion path duplicate-safe. It reports whether the call was newly
// queued.
func (c *Coordinator) enqueue(call proto.CallID) bool {
	var exec time.Duration
	var deadline time.Time
	if rec, ok := c.store.Peek(call); ok {
		exec, deadline = rec.ExecTime, rec.Deadline
	}
	now := c.env.Now()
	queued := c.eng.Enqueue(call, exec, deadline, now)
	if queued && c.cm.dispatchLat != nil {
		c.queuedAt[call] = now
	}
	return queued
}

func (c *Coordinator) unqueue(call proto.CallID) {
	c.eng.Unqueue(call)
	delete(c.queuedAt, call)
}

// requeueReason says which of the five paths re-issued a call.
type requeueReason int

const (
	requeueServerSync           requeueReason = iota // peer-wise sync: the server does not hold the assignment
	requeueServerSuspected                           // the assigned server went silent
	requeueCoordinatorSuspected                      // held for a ring predecessor that went silent
	requeueAdopted                                   // held for a shard whose whole ring went silent
	requeueStealReclaim                              // granted to a thief shard, result never came home
)

// requeueReasonNames is the reason as operators read it: the requeue
// span's detail and the reason label of rpcv_coord_requeues_total.
var requeueReasonNames = [...]string{
	requeueServerSync:           "server-sync",
	requeueServerSuspected:      "server-suspected",
	requeueCoordinatorSuspected: "coordinator-suspected",
	requeueAdopted:              "adopted",
	requeueStealReclaim:         "steal-reclaim",
}

// requeue is the single re-insertion path for every reissue of a lost,
// dying or withdrawn assignment (server suspicion, peer-wise sync,
// predecessor release, shard adoption, steal reclaim): it resets the
// record to pending, re-queues it and counts the reissue in the
// rescheduled stat and under its reason, so no path can bypass the
// duplicate check or the accounting. It reports whether the call is
// schedulable again.
func (c *Coordinator) requeue(call proto.CallID, reason requeueReason) bool {
	rec, ok := c.store.Peek(call)
	if !ok || rec.State == proto.TaskFinished {
		return false
	}
	if rec.Service == "" && rec.Params == nil {
		return false // placeholder learned via replication without data
	}
	rec.State = proto.TaskPending
	c.put(rec)
	c.persistJob(rec, headerOnly)
	if c.enqueue(call) {
		c.rescheduled++
		c.cm.requeues[reason].Inc()
		c.trace(call, obs.StageRequeue, requeueReasonNames[reason])
	}
	c.markDirty(call)
	return true
}

// ---------------------------------------------------------------------
// Passive replication (virtual ring)
// ---------------------------------------------------------------------

func (c *Coordinator) scheduleReplication() {
	if c.cfg.ReplicationPeriod <= 0 {
		return
	}
	c.replTimer = c.env.After(c.cfg.ReplicationPeriod, func() {
		c.ReplicateNow()
		c.scheduleReplication()
	})
}

// ReplicateNow starts one replication round to the current ring
// successor, if any and if no round is in flight. Exported so
// experiment drivers can measure single rounds (figure 5).
func (c *Coordinator) ReplicateNow() {
	if c.replPending || c.stopped {
		return
	}
	succ := c.Successor()
	if succ == "" {
		return
	}
	c.replRound++
	round := c.replRound
	update := &proto.ReplicaUpdate{From: c.env.Self(), Epoch: c.epoch, Round: round}
	// One entry per session the round says something about — a dirty job
	// or a raised watermark — each with the session's watermark, which
	// is how the successor learns what it may delete too.
	sessions := make(map[string]proto.SessionMax)
	note := func(k sessionKey, seq proto.RPCSeq) {
		key := fmt.Sprintf("%s/%d", k.user, k.session)
		sm := sessions[key]
		sm.User, sm.Session, sm.Collected = k.user, k.session, c.collected[k]
		sm.MaxSeq = max(sm.MaxSeq, seq)
		sessions[key] = sm
	}
	for _, call := range sortedCalls(c.dirty.set) {
		rec, ok := c.store.Peek(call)
		if !ok {
			continue
		}
		clone := rec.Clone()
		if len(clone.Params) > c.cfg.ReplicateParamsLimit {
			// File archives are not replicated.
			clone.Params = nil
		}
		update.Jobs = append(update.Jobs, *clone)
		note(sessionKey{call.User, call.Session}, call.Seq)
	}
	for k := range c.wdirty.set {
		note(k, c.collected[k])
	}
	sessionKeys := make([]string, 0, len(sessions))
	for k := range sessions {
		sessionKeys = append(sessionKeys, k)
	}
	sort.Strings(sessionKeys)
	for _, k := range sessionKeys {
		update.MaxSeqs = append(update.MaxSeqs, sessions[k])
	}
	// Nothing dirty: the (tiny) update goes anyway — it doubles as the
	// ring heartbeat that keeps successors from suspecting us.
	c.dirty.begin()
	c.wdirty.begin()
	c.replPending = true
	c.replStart = c.env.Now()
	c.successor = succ
	c.afterDBCost(func() { c.env.Send(succ, update) })

	// A round that never acks must not wedge replication forever: give
	// up on this round after the suspicion timeout (the ring monitor
	// will also fire). A later round has its own timer.
	c.env.After(c.cfg.HeartbeatTimeout, func() {
		if c.replPending && c.replRound == round {
			c.replPending = false
		}
	})
}

func (c *Coordinator) handleReplicaUpdate(from proto.NodeID, m *proto.ReplicaUpdate) {
	c.ring.Observe(from)
	c.predecessor = from
	if c.inMyRing(from) {
		c.mergeCoords([]proto.NodeID{from})
	}
	applied := 0
	for i := range m.Jobs {
		incoming := &m.Jobs[i]
		local, status := c.lookup(incoming.Call)
		ok := status == callLive
		switch {
		case status == callCollected:
			c.stale(m)
		case ok && local.State == proto.TaskFinished:
			// Finished tasks are never regressed.
		case incoming.State == proto.TaskFinished:
			rec := incoming.Clone()
			c.put(rec)
			c.persistJob(rec, changedParts(local, rec))
			c.clearOngoing(rec.Call, rec.Server)
			c.unqueue(rec.Call)
			c.finished++
			c.cm.finished.Inc()
			if c.cfg.OnJobFinished != nil {
				c.cfg.OnJobFinished(rec.Call, c.env.Now())
			}
			applied++
		case incoming.State == proto.TaskOngoing:
			// Not scheduled until we suspect the predecessor.
			rec := incoming.Clone()
			if ok && local.Params != nil && rec.Params == nil {
				rec.Params = local.Params
			}
			c.put(rec)
			c.persistJob(rec, changedParts(local, rec))
			c.fromPredecessor[rec.Call] = true
			applied++
		default: // pending
			rec := incoming.Clone()
			if ok && local.Params != nil && rec.Params == nil {
				rec.Params = local.Params
			}
			c.put(rec)
			c.persistJob(rec, changedParts(local, rec))
			if !ok || local.State != proto.TaskOngoing {
				c.enqueue(rec.Call)
			}
			applied++
		}
	}
	// The watermarks after the jobs: a finish this round carries is
	// stored (and counted) before the watermark that lets it go. What a
	// replica learns this way it tells no one — it does not replicate
	// the jobs of an update either.
	for _, sm := range m.MaxSeqs {
		c.acknowledge(sessionKey{sm.User, sm.Session}, sm.Collected, false)
	}
	c.afterDBCost(func() {
		c.env.Send(from, &proto.ReplicaAck{From: c.env.Self(), Epoch: m.Epoch, Round: m.Round})
	})
}

func (c *Coordinator) handleReplicaAck(from proto.NodeID, m *proto.ReplicaAck) {
	c.ring.Observe(from)
	if !c.replPending || from != c.successor || m.Epoch != c.epoch || m.Round != c.replRound {
		return
	}
	c.replPending = false
	c.lastReplDur = c.env.Now().Sub(c.replStart)
	c.replRounds++
	// The successor now holds exactly what the round carried; records
	// dirtied since the round was sent stay dirty for the next one. A
	// finished call that waited for this ack below its session's
	// watermark can go.
	c.wdirty.acked()
	c.collectAcked(c.dirty.acked())
}

// onCoordinatorSuspected recomputes the topology to stay in the same
// connected component: drop the suspect from the ring view and, if its
// tasks were held back as "ongoing at predecessor", release them.
func (c *Coordinator) onCoordinatorSuspected(id proto.NodeID) {
	c.env.Logf("coordinator: suspect coordinator %s", id)
	if c.replPending && id == c.successor {
		c.replPending = false // the round is lost; next tick re-routes
	}
	if id == c.predecessor {
		released := 0
		for _, call := range sortedCalls(c.fromPredecessor) {
			delete(c.fromPredecessor, call)
			if c.requeue(call, requeueCoordinatorSuspected) {
				released++
			}
		}
		if released > 0 {
			c.env.Logf("coordinator: released %d tasks of suspected predecessor %s", released, id)
		}
		c.dispatch()
	}
}

// Successor returns this coordinator's current ring successor, skipping
// suspected coordinators. Exported for tests and the topology ablation.
func (c *Coordinator) Successor() proto.NodeID {
	return statesync.Successor(c.env.Self(), c.coords, c.ring.Suspected)
}

// markDirty notes that call's record changed, for each stream that has
// someone to tell: the ring successor if this coordinator knows of any
// other (in a ring of one nothing is dirty — there is no round to clean
// it), the successor shard if the grid is sharded.
func (c *Coordinator) markDirty(call proto.CallID) {
	if len(c.coords) > 1 {
		c.dirty.mark(call, c.replPending)
	}
	if c.smap != nil {
		c.xdirty.mark(call, c.xpending)
	}
}

// mergeCoords merges ids into the coordinator list. The first fellow
// coordinator a ring of one hears of is owed everything still stored:
// nothing was marked dirty while there was no one to tell.
func (c *Coordinator) mergeCoords(ids []proto.NodeID) {
	alone := len(c.coords) == 1
	c.coords = statesync.MergeNodeLists(c.coords, ids)
	if alone && len(c.coords) > 1 {
		for _, rec := range c.store.PeekAll() {
			c.dirty.mark(rec.Call, c.replPending)
		}
		for k := range c.collected {
			c.wdirty.mark(k, c.replPending)
		}
	}
}

// ---------------------------------------------------------------------
// Sharded coordination layer
// ---------------------------------------------------------------------

// ownsSession decides whether this coordinator serves a session: always
// when unsharded; when sharded, if the session hashes to this shard or
// to a shard this coordinator has adopted. A guarded shard whose entire
// ring is currently suspected is adopted lazily here, so a client that
// failed over faster than the guard sweep is not bounced back to a dead
// ring.
func (c *Coordinator) ownsSession(user proto.UserID, session proto.SessionID) bool {
	if c.smap == nil {
		return true
	}
	owner := c.smap.Owner(user, session)
	if owner == c.shardIdx || c.adopted[owner] {
		return true
	}
	if c.isGuarded(owner) && c.ringAllSuspected(owner) {
		c.adopt(owner)
		return true
	}
	return false
}

// sendRedirect answers a misrouted client request with the owner shard
// and the current topology, repairing a stale cached map in one round
// trip. Redirects are free of database cost: the request never reaches
// the store.
func (c *Coordinator) sendRedirect(to proto.NodeID, user proto.UserID, session proto.SessionID, call proto.CallID) {
	c.redirects++
	c.cm.redirects.Inc()
	if call != (proto.CallID{}) {
		c.trace(call, obs.StageRedirect, fmt.Sprintf("to shard %d", c.smap.Owner(user, session)))
	}
	c.env.Send(to, &proto.ShardRedirect{
		From:    c.env.Self(),
		User:    user,
		Session: session,
		Call:    call,
		Shard:   c.smap.Owner(user, session),
		Map:     c.smap.State(),
	})
}

func (c *Coordinator) handleShardMapRequest(from proto.NodeID, _ *proto.ShardMapRequest) {
	reply := &proto.ShardMapReply{}
	if c.smap != nil {
		reply.Map = c.smap.State()
	}
	c.env.Send(from, reply)
}

func (c *Coordinator) isGuarded(s int) bool {
	for _, g := range c.guarded {
		if g == s {
			return true
		}
	}
	return false
}

// ringAllSuspected reports whether every coordinator of shard s is
// currently suspected by the guard monitor.
func (c *Coordinator) ringAllSuspected(s int) bool {
	if c.guard == nil {
		return false
	}
	for _, id := range c.smap.Ring(s) {
		if !c.guard.Suspected(id) {
			return false
		}
	}
	return true
}

// onGuardSuspected fires on each new suspicion of a guarded shard's
// coordinator; when a whole guarded ring is silent, its sessions are
// adopted.
func (c *Coordinator) onGuardSuspected(proto.NodeID) {
	for _, s := range c.guarded {
		if !c.adopted[s] && c.ringAllSuspected(s) {
			c.adopt(s)
		}
	}
	c.dispatch()
}

// adopt takes over a lost shard: the records previously learned through
// cross-shard sync are released into the scheduling queue (finished
// ones are already served from the store), and the session ownership
// check starts accepting the shard's clients — which land here anyway,
// since the client failover order follows the same successor relation.
// Adoption is sticky for this incarnation: if the lost ring later
// revives, both shards serve the sessions (duplicate execution is
// at-least-once semantics, and results deduplicate by CallID).
func (c *Coordinator) adopt(s int) {
	if c.adopted[s] {
		return
	}
	c.adopted[s] = true
	c.adoptions++
	c.cm.adoptions.Inc()
	released := 0
	for _, call := range sortedCalls(c.fromShard) {
		if c.fromShard[call] != s {
			continue
		}
		delete(c.fromShard, call)
		if c.requeue(call, requeueAdopted) {
			released++
		}
	}
	c.env.Logf("coordinator: adopted shard %d (%d held tasks released)", s, released)
}

func (c *Coordinator) scheduleShardSync() {
	if c.smap == nil {
		return
	}
	period := c.cfg.ShardSyncPeriod
	if period <= 0 {
		period = c.cfg.ReplicationPeriod
	}
	if period <= 0 {
		return
	}
	c.xtimer = c.env.After(period, func() {
		c.ShardSyncNow()
		c.scheduleShardSync()
	})
}

// ShardSyncNow starts one cross-shard replication round: dirty records
// plus the full per-session sequence sets of owned sessions go to one
// member of the successor shard's ring. Exported for tests and manual
// drivers (like ReplicateNow).
func (c *Coordinator) ShardSyncNow() {
	if c.smap == nil || c.xpending || c.stopped {
		return
	}
	succ := c.smap.SuccessorShard(c.shardIdx)
	if succ == c.shardIdx {
		return
	}
	ring := c.smap.Ring(succ)
	if len(ring) == 0 {
		return
	}
	target := ring[c.xtargetIx%len(ring)]
	c.xround++
	round := c.xround
	msg := &proto.ShardSync{
		From:  c.env.Self(),
		Shard: c.shardIdx,
		Epoch: c.epoch,
		Round: round,
	}
	for _, call := range sortedCalls(c.xdirty.set) {
		rec, ok := c.store.Peek(call)
		if !ok {
			continue
		}
		clone := rec.Clone()
		if len(clone.Params) > c.cfg.ReplicateParamsLimit {
			clone.Params = nil // file archives are never replicated
		}
		msg.Jobs = append(msg.Jobs, *clone)
	}
	msg.Sessions = c.dirtySessionSeqs(msg.Jobs)
	c.xdirty.begin()
	c.xwdirty.begin()
	c.xpending = true
	c.env.Send(target, msg)
	// A silent target must not wedge cross-shard sync: after the
	// suspicion timeout, give up on this round and rotate to another
	// successor-ring member.
	c.env.After(c.cfg.HeartbeatTimeout, func() {
		if c.xpending && c.xround == round {
			c.xpending = false
			c.xtargetIx++
		}
	})
}

// dirtySessionSeqs advertises the exact sequence sets this coordinator
// stores for the owned sessions carried by the current round — the
// input of the receiver's set-difference (statesync.SeqSetDiff), which
// detects records an earlier lost round never delivered. Advertising
// only the round's active sessions (rather than every session ever
// stored) keeps idle rounds O(1) and message size proportional to
// recent activity; a coordinator restart re-dirties its whole store,
// so full coverage recurs exactly when histories may have diverged.
// Each entry also carries the session's collected watermark, and a
// session whose watermark rose since the last acknowledged round gets
// an entry for that alone (without a sequence set if it is another
// shard's session, held here as a copy): the successor shard deletes
// what this one has deleted.
func (c *Coordinator) dirtySessionSeqs(jobs []proto.JobRecord) []proto.SessionSeqs {
	// active maps a session to whether its sequence set is advertised.
	active := make(map[sessionKey]bool, len(jobs)+len(c.xwdirty.set))
	for k := range c.xwdirty.set {
		active[k] = c.smap.Owner(k.user, k.session) == c.shardIdx
	}
	for i := range jobs {
		call := jobs[i].Call
		if c.smap.Owner(call.User, call.Session) == c.shardIdx {
			active[sessionKey{call.User, call.Session}] = true
		}
	}
	if len(active) == 0 {
		return nil
	}
	keys := make([]sessionKey, 0, len(active))
	for k := range active {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].user != keys[j].user {
			return keys[i].user < keys[j].user
		}
		return keys[i].session < keys[j].session
	})
	out := make([]proto.SessionSeqs, 0, len(keys))
	for _, k := range keys {
		ss := proto.SessionSeqs{User: k.user, Session: k.session, Collected: c.collected[k]}
		if active[k] {
			ss.Seqs = c.store.PeekSessionSeqs(k.user, k.session)
		}
		out = append(out, ss)
	}
	return out
}

// handleShardSync applies a predecessor shard's cross-replication:
// finished records are stored (and propagated intra-ring), unfinished
// ones are held passively until adoption. The ack reports, via set
// difference, the calls this coordinator is missing entirely.
func (c *Coordinator) handleShardSync(from proto.NodeID, m *proto.ShardSync) {
	if c.guard != nil {
		c.guard.Observe(from)
	}
	for i := range m.Jobs {
		incoming := &m.Jobs[i]
		local, status := c.lookup(incoming.Call)
		ok := status == callLive
		switch {
		case status == callCollected:
			c.stale(m)
		case ok && local.State == proto.TaskFinished:
			// Finished tasks are never regressed.
		case incoming.State == proto.TaskFinished:
			if _, stolen := c.stolenOut[incoming.Call]; stolen {
				// A job we granted to an idle thief shard came home.
				c.stolenHome++
				c.cm.stolenHome.Inc()
			}
			rec := incoming.Clone()
			c.put(rec)
			c.persistJob(rec, changedParts(local, rec))
			c.clearOngoing(rec.Call, rec.Server)
			c.unqueue(rec.Call)
			delete(c.fromShard, rec.Call)
			c.finished++
			c.cm.finished.Inc()
			if c.cfg.OnJobFinished != nil {
				c.cfg.OnJobFinished(rec.Call, c.env.Now())
			}
			// Propagate within this ring (and onward around the shard
			// circle) so the copy survives our own faults too.
			c.markDirty(rec.Call)
		default:
			if c.locallyClaimed(incoming.Call) {
				// We are scheduling or executing this call ourselves —
				// typically work stolen from the sync's sender, whose
				// ongoing-marked copy echoes back here. The passive
				// copy must not clobber the live claim.
				continue
			}
			rec := incoming.Clone()
			if ok && local.Params != nil && rec.Params == nil {
				rec.Params = local.Params
			}
			c.put(rec)
			c.persistJob(rec, changedParts(local, rec))
			if c.adopted[m.Shard] {
				// Already adopted the source shard: schedule right away.
				rec.State = proto.TaskPending
				c.put(rec)
				c.enqueue(rec.Call)
				c.markDirty(rec.Call)
			} else {
				// Held passively: NOT dirty (ring-mates would schedule
				// it) and not queued until the source shard is adopted.
				c.fromShard[rec.Call] = m.Shard
			}
		}
	}
	ack := &proto.ShardSyncAck{From: c.env.Self(), Shard: c.shardIdx, Epoch: m.Epoch, Round: m.Round}
	for _, ss := range m.Sessions {
		// The watermark after the jobs, as in handleReplicaUpdate — but
		// told onward, like the finished records of this very message.
		k := sessionKey{ss.User, ss.Session}
		c.acknowledge(k, ss.Collected, true)
		if ss.Seqs == nil {
			continue
		}
		mine := c.store.SessionSeqs(ss.User, ss.Session)
		for _, seq := range statesync.SeqSetDiff(ss.Seqs, mine) {
			if seq > c.collected[k] { // below it, missing means collected
				ack.Want = append(ack.Want, proto.CallID{User: ss.User, Session: ss.Session, Seq: seq})
			}
		}
	}
	c.afterDBCost(func() { c.env.Send(from, ack) })
}

// handleShardSyncAck completes a cross-shard round: records carried by
// the round are clean, records the receiver asked for are re-marked
// dirty and shipped in an immediate follow-up round.
func (c *Coordinator) handleShardSyncAck(from proto.NodeID, m *proto.ShardSyncAck) {
	if !c.xpending || m.Epoch != c.epoch || m.Round != c.xround {
		return
	}
	c.xpending = false
	c.xrounds++
	c.xwdirty.acked()
	c.collectAcked(c.xdirty.acked())
	wanted := 0
	for _, call := range m.Want {
		if _, ok := c.store.Peek(call); ok {
			c.xdirty.set[call] = true
			wanted++
		}
	}
	if wanted > 0 {
		c.env.After(0, c.ShardSyncNow)
	}
}

// ringPrimary reports whether this coordinator is the member of its
// ring that clients and servers currently prefer (the first
// non-suspected coordinator in the common sorted order they all use).
func (c *Coordinator) ringPrimary() bool {
	for _, id := range c.coords {
		if id == c.env.Self() {
			return true
		}
		if !c.ring.Suspected(id) {
			return false
		}
	}
	return true
}

// locallyClaimed reports whether this coordinator is actively
// scheduling or executing the call (pending in the engine, assigned,
// or speculatively duplicated) — e.g. work stolen from another shard.
func (c *Coordinator) locallyClaimed(call proto.CallID) bool {
	if c.eng.Queued(call) {
		return true
	}
	if _, ok := c.ongoing[call]; ok {
		return true
	}
	if _, ok := c.spec[call]; ok {
		return true
	}
	return false
}

// ---------------------------------------------------------------------
// Scheduling sweep: lateness observation + speculative duplication
// ---------------------------------------------------------------------

func (c *Coordinator) scheduleSpeculation() {
	if !c.eng.NeedsSweep() {
		// fcfs/deadline never read the estimator: don't pay an
		// O(ongoing) walk per heartbeat period on the default path.
		return
	}
	c.specTimer = c.env.After(c.cfg.HeartbeatPeriod, func() {
		c.schedSweep()
		c.scheduleSpeculation()
	})
}

// schedSweep walks the in-flight assignments once per heartbeat
// period. Every policy gets the lateness feed (a task running past its
// expected duration classifies its server as slow without waiting for
// a completion that may never come). Under the speculative policy the
// sweep additionally issues redundant instances of stragglers: when an
// assignment's age exceeds the engine's threshold, a duplicate is
// queued for any fast server but the one running the original. The
// first stored result wins; the loser is cancelled by clearOngoing
// and, should its result arrive anyway, deduplicated by CallID — the
// same mechanism that already makes re-execution safe across
// replication, shard sync and coordinator failover.
func (c *Coordinator) schedSweep() {
	now := c.env.Now()
	speculate := c.eng.Speculative()
	// Per server, only the oldest assignment feeds the lateness
	// estimate: that is the one actually executing; younger ones may
	// merely be waiting in the server's backlog, and counting their
	// queue wait as slowness would brand a busy fast machine slow.
	// An order-independent reduction: no sort needed for determinism.
	oldest := make(map[proto.NodeID]time.Time, len(c.byServer))
	for _, info := range c.ongoing {
		if at, ok := oldest[info.server]; !ok || info.assignedAt.Before(at) {
			oldest[info.server] = info.assignedAt
		}
	}
	for _, call := range sortedCalls(c.ongoing) {
		info := c.ongoing[call]
		rec, ok := c.store.Peek(call)
		if !ok || rec.State != proto.TaskOngoing {
			continue
		}
		age := now.Sub(info.assignedAt)
		// Only a server that is demonstrably alive gets branded slow by
		// lateness: a crashed one's assignment also ages, but that is
		// the suspicion machinery's business, not the estimator's.
		if info.assignedAt.Equal(oldest[info.server]) &&
			c.servers.ObservedWithin(info.server, 3*c.cfg.HeartbeatPeriod) {
			c.eng.ObserveLateness(info.server, rec.ExecTime, age)
		}
		if !speculate {
			continue
		}
		if _, dup := c.spec[call]; dup {
			continue // already duplicated once
		}
		if age < c.eng.SpeculateThreshold(rec.ExecTime) {
			continue
		}
		c.eng.EnqueueSpec(call, info.server)
	}
}

// ---------------------------------------------------------------------
// Cross-shard work stealing
// ---------------------------------------------------------------------

// maybeSteal (thief side) asks the successor shard for work when the
// local queue is empty while a server is idle. The successor direction
// is deliberate: this coordinator's ShardSync already flows to that
// shard, so the stolen tasks' results are routed home by the existing
// cross-replication path. At most one request is outstanding and
// requests are throttled to the heartbeat period.
func (c *Coordinator) maybeSteal() {
	if !c.cfg.WorkStealing || c.smap == nil || c.stealPending || c.stopped {
		return
	}
	now := c.env.Now()
	if !c.lastStealAt.IsZero() && now.Sub(c.lastStealAt) < c.cfg.HeartbeatPeriod {
		return
	}
	succ := c.smap.SuccessorShard(c.shardIdx)
	if succ == c.shardIdx || c.adopted[succ] {
		return
	}
	ring := c.smap.Ring(succ)
	if len(ring) == 0 {
		return
	}
	target := ring[c.stealIx%len(ring)]
	c.stealRound++
	round := c.stealRound
	c.stealPending = true
	c.lastStealAt = now
	c.env.Send(target, &proto.StealRequest{
		From:     c.env.Self(),
		Shard:    c.shardIdx,
		Epoch:    c.epoch,
		Round:    round,
		Capacity: c.cfg.MaxTasksPerAck,
	})
	// A silent victim must not wedge stealing: give up on this round
	// after the suspicion timeout and rotate to another ring member.
	c.env.After(c.cfg.HeartbeatTimeout, func() {
		if c.stealPending && c.stealRound == round {
			c.stealPending = false
			c.stealIx++
		}
	})
}

// handleStealRequest (victim side) grants up to Capacity pending jobs
// to an idle predecessor shard. Granted jobs are marked ongoing (so
// local servers do not also execute them), tracked for timeout reclaim
// and — unlike replication — shipped with their full parameter
// payloads, which the thief needs to execute.
func (c *Coordinator) handleStealRequest(from proto.NodeID, m *proto.StealRequest) {
	if !c.cfg.WorkStealing || c.smap == nil {
		return
	}
	if c.smap.SuccessorShard(m.Shard) != c.shardIdx {
		// Only a shard we cross-replicate from may steal here: any
		// other thief could not route results home over ShardSync.
		return
	}
	if !c.ringPrimary() {
		// A replica's queue mirrors pending records learned via
		// ReplicaUpdate; granting from the mirror would double-execute
		// work the ring's serving member still schedules locally.
		return
	}
	grant := &proto.StealGrant{From: c.env.Self(), Shard: c.shardIdx, Epoch: m.Epoch, Round: m.Round}
	limit := min(m.Capacity, c.cfg.MaxTasksPerAck)
	now := c.env.Now()
	for limit > 0 {
		call, ok := c.eng.PopSteal()
		if !ok {
			break
		}
		rec, have := c.store.Peek(call)
		if !have || rec.State != proto.TaskPending {
			continue
		}
		if rec.Service == "" && rec.Params == nil {
			continue // placeholder without data
		}
		rec.State = proto.TaskOngoing
		rec.Instance++
		c.put(rec)
		c.persistJob(rec, headerOnly)
		c.stolenOut[call] = stolenOutInfo{shard: m.Shard, grantedAt: now}
		c.stolenOutTotal++
		c.cm.stolenOut.Inc()
		c.trace(call, obs.StageSteal, fmt.Sprintf("granted to shard %d", m.Shard))
		c.markDirty(call)
		grant.Jobs = append(grant.Jobs, *rec.Clone())
		limit--
	}
	if len(grant.Jobs) > 0 {
		c.env.After(c.stealReclaimAfter(), c.reclaimStolen)
	}
	c.afterDBCost(func() { c.env.Send(from, grant) })
}

// stealReclaimAfter bounds how long a granted job may stay out before
// the victim re-queues it: long enough for the thief to execute and
// for a ShardSync round to bring the result home, short enough that a
// dying thief does not stall the batch. A late duplicate execution is
// ordinary at-least-once behaviour.
func (c *Coordinator) stealReclaimAfter() time.Duration {
	d := 2 * c.cfg.HeartbeatTimeout
	if p := c.cfg.ShardSyncPeriod; p > 0 && 2*p > d {
		d = 2 * p
	}
	return d
}

// reclaimStolen re-queues granted jobs whose results never came home.
func (c *Coordinator) reclaimStolen() {
	now := c.env.Now()
	deadline := c.stealReclaimAfter()
	for _, call := range sortedCalls(c.stolenOut) {
		if now.Sub(c.stolenOut[call].grantedAt) < deadline {
			continue
		}
		delete(c.stolenOut, call)
		c.requeue(call, requeueStealReclaim)
	}
	c.dispatch()
}

// handleStealGrant (thief side) queues the granted foreign jobs
// locally. Results will flow home through the regular ShardSync round
// because handleTaskResult marks every finished record cross-shard
// dirty; the CallID-keyed store keeps a racing home-side re-execution
// harmless.
func (c *Coordinator) handleStealGrant(from proto.NodeID, m *proto.StealGrant) {
	if m.Epoch != c.epoch || m.Round != c.stealRound {
		return // stale grant from a previous round or incarnation
	}
	c.stealPending = false
	if len(m.Jobs) == 0 {
		// Nothing to take from this member; rotate so the next request
		// reaches another victim-ring coordinator (work submitted to a
		// ring-mate only mirrors here after a replication round).
		c.stealIx++
		return
	}
	for i := range m.Jobs {
		incoming := &m.Jobs[i]
		local, status := c.lookup(incoming.Call)
		if status == callCollected {
			c.stale(m)
			continue // its session has the result; nothing to run or carry
		}
		if local != nil && local.State == proto.TaskFinished {
			continue // result already here; ShardSync will carry it home
		}
		if c.locallyClaimed(incoming.Call) {
			continue // a re-grant raced the victim's reclaim
		}
		rec := incoming.Clone()
		rec.State = proto.TaskPending
		c.put(rec)
		c.persistJob(rec, changedParts(local, rec))
		delete(c.fromShard, rec.Call) // now actively ours, not passive
		c.enqueue(rec.Call)
		c.stolenIn++
		c.cm.stolenIn.Inc()
		c.trace(rec.Call, obs.StageSteal, "stolen from "+string(from))
	}
}

// sortedCalls returns the map's keys ordered by CallID, so protocol
// actions never depend on Go's randomized map iteration (determinism).
func sortedCalls[V any](m map[proto.CallID]V) []proto.CallID {
	out := make([]proto.CallID, 0, len(m))
	for call := range m {
		out = append(out, call)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// ---------------------------------------------------------------------
// Introspection (experiment and test hooks; event-loop only)
// ---------------------------------------------------------------------

// Stats is a snapshot of coordinator counters.
type Stats struct {
	JobsAccepted    int
	SubmitsReceived int
	Finished        int
	Pending         int
	Ongoing         int
	DupResults      int
	Rescheduled     int
	ReplRounds      uint64
	LastReplication time.Duration
	Coordinators    int
	KnownServers    int
	Redirects       int
	Adoptions       int
	ShardSyncRounds uint64
	Policy          string
	Speculated      int // redundant task instances issued
	SpecWins        int // results won by the speculative copy
	StolenIn        int // tasks stolen from the successor shard and run here
	StolenOut       int // pending tasks granted away to an idle thief shard
	StolenHome      int // granted tasks whose result came home via ShardSync
	PushedTasks     int // assignments sent as late replies to a standing offer
	PushedResults   int // results sent as late replies to a subscription
	IdleSlots       int // task slots servers have on offer right now
	Subscriptions   int // sessions whose last poll stands as a subscription
	Jobs            int // records in the job table right now
	Collected       int // finished calls deleted below their session's watermark
	CollectWaiting  int // finished and acknowledged, held until a successor has heard
	Stale           int // messages about a collected call, answered and dropped
}

// StatsNow returns the current counters. Event-loop only.
func (c *Coordinator) StatsNow() Stats {
	pending, ongoing := c.store.CountStates()
	return Stats{
		JobsAccepted:    c.jobsAccepted,
		SubmitsReceived: c.submitsReceived,
		Finished:        c.finished,
		Pending:         pending,
		Ongoing:         ongoing,
		DupResults:      c.dupResults,
		Rescheduled:     c.rescheduled,
		ReplRounds:      c.replRounds,
		LastReplication: c.lastReplDur,
		Coordinators:    len(c.coords),
		KnownServers:    c.servers.Tracked(),
		Redirects:       c.redirects,
		Adoptions:       c.adoptions,
		ShardSyncRounds: c.xrounds,
		Policy:          c.eng.PolicyName(),
		Speculated:      c.speculated,
		SpecWins:        c.specWins,
		StolenIn:        c.stolenIn,
		StolenOut:       c.stolenOutTotal,
		StolenHome:      c.stolenHome,
		PushedTasks:     c.pushedTasks,
		PushedResults:   c.pushedResults,
		IdleSlots:       c.offers.slots,
		Subscriptions:   len(c.subs),
		Jobs:            c.store.Len(),
		Collected:       c.collectedJobs,
		CollectWaiting:  len(c.waiting),
		Stale:           c.staleMsgs,
	}
}

// PolicyName returns the active scheduling policy. Event-loop only.
func (c *Coordinator) PolicyName() string { return c.eng.PolicyName() }

// SuspectedServers returns the servers currently under heartbeat
// suspicion. Event-loop only (statusz sections fetch it via rt.Do).
func (c *Coordinator) SuspectedServers() []proto.NodeID { return c.servers.Suspects() }

// SuspectedCoordinators returns the ring members currently under
// suspicion. Event-loop only.
func (c *Coordinator) SuspectedCoordinators() []proto.NodeID { return c.ring.Suspects() }

// ShardState returns the shard map's wire state (zero value when
// unsharded). Event-loop only.
func (c *Coordinator) ShardState() proto.ShardMapState {
	if c.smap == nil {
		return proto.ShardMapState{}
	}
	return c.smap.State()
}

// AdoptedShards returns the shards adopted so far, sorted (tests).
func (c *Coordinator) AdoptedShards() []int {
	out := make([]int, 0, len(c.adopted))
	for s := range c.adopted {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// FinishedCount returns the number of jobs first seen finished here.
func (c *Coordinator) FinishedCount() int { return c.finished }

// LastReplicationDuration returns the duration of the last completed
// replication round (figure 5's measured quantity).
func (c *Coordinator) LastReplicationDuration() time.Duration { return c.lastReplDur }

// ReplicationInFlight reports whether a round is awaiting its ack.
func (c *Coordinator) ReplicationInFlight() bool { return c.replPending }

// DB exposes the task database (tests only).
func (c *Coordinator) DB() *db.DB { return c.store }
