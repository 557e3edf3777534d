// Package coordinator implements the RPC-V middle tier.
//
// The Coordinator virtualizes servers for clients: clients never
// contact servers directly. One coordinator process
//
//   - registers client RPC submissions as job records in its task
//     database and acknowledges them;
//   - schedules pending jobs first-come-first-served onto servers that
//     pull work with their heartbeats (the queue is internal/sched);
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
// # Peers
//
// A coordinator runs one stream to its fellows, one round at a time
// (peers.go): a ReplicaUpdate to its ring successor (the paper's passive
// replication). A round unanswered for the suspicion timeout is given
// up. A round carries the records and watermarks changed since the
// successor's last answer. One rule merges a record the predecessor
// sent: a collected or finished call stays so, a finish is stored as a
// server's result is, a pending record is queued unless the call runs
// here, and an ongoing one is held for the predecessor and requeued once
// the predecessor is suspected. A ReplicaUpdate and its ack wait out DBCost as any reply
// does (see Output commit).
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
// with the session's entries it already receives — and deletes the
// record, the header and the blobs of every finished call at or below
// it, once the successor is no longer owed the call's finish. The job table, the store and a restart's replay then
// follow the calls in flight, not the grid's history. What a relaunched
// session can still fetch is every result no Poll has acknowledged; a
// message about a collected call — a duplicate Submit, a late
// TaskResult, a replica's copy — is answered exactly as one about a
// finished call and changes nothing. collect.go has the rule and the
// lookup that tells a collected call from one never seen.
//
// # Output commit
//
// A job is logged before the coordinator answers for it, and its event
// loop never waits on the disk to do so: a transition stages the job's
// header, and a reply waits for the disk only if recovery could not
// repair its loss. A SubmitAck, a TaskResultAck and a result wait at a
// gate in front of Send until the header's group commit has completed;
// an assignment leaves at once, since a restart reloads an ongoing call
// as pending and hands it out again. commit.go has the gate.
//
// A handler hands what it decided to send to the gate as a value, never
// as a closure: a reply — to, message, and a late result riding the same
// decision — goes through afterDBCost, straight on at zero DBCost (the
// shipped daemon), or, while a modelled database cost is due (the
// simulator), as a pooled value behind one timer per decision. So a call
// allocates its messages, its record and its log entries, and nothing
// per step besides: the job table keeps each call's disk key, built
// once, and the collection's writes and deletes complete through
// callbacks bound once.
//
// All methods run on the node's event loop (see internal/node); the
// type has no internal locking and must not be shared across loops.
package coordinator

import (
	"errors"
	"slices"
	"sort"
	"time"

	"rpcv/internal/db"
	"rpcv/internal/detector"
	"rpcv/internal/msglog"
	"rpcv/internal/node"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/sched"
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
	// Zero disables them (unit tests drive them manually).
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
	// heartbeat reply. Default 4.
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

	// Policy names the schedule (internal/sched): "fcfs", the paper's
	// and the only one, or empty for the same. Any other name logs and
	// serves FCFS.
	Policy string

	// Obs, when non-nil, receives the coordinator's live metrics
	// (counters and gauges labeled node="<self>", plus the scheduling
	// engine's queue gauge) and CallID-correlated span events
	// (enqueue, dispatch, result, requeue)
	// on the observer's ring. All instruments are written from the
	// event loop with plain atomic stores; nil costs nothing.
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
	cfg  Config
	env  node.Env    // gate, as a node.Env
	gate *commitGate // output commit (commit.go)

	store  *db.DB
	dbEng  node.SerialResource // serializes database operation latency
	epoch  uint64              // incarnation counter, persisted, stamps replica updates
	coords []proto.NodeID

	// Scheduling state (volatile; rebuilt from the store on restart).
	// The engine owns the pending queue (internal/sched).
	eng      *sched.Engine
	ongoing  map[proto.CallID]ongoingInfo           // assigned, awaiting result
	byServer map[proto.NodeID]map[proto.CallID]bool // reverse index
	// queuedAt stamps each pending call's (re)queue time so the
	// dispatch-latency histogram (rpcv_coord_dispatch_latency_ns, the
	// queue wait) can be observed at assignment. Maintained only when
	// observability is on.
	queuedAt map[proto.CallID]time.Time

	servers *detector.Monitor // suspicion of servers
	ring    *detector.Monitor // suspicion of fellow coordinators

	predecessor proto.NodeID // last coordinator we received an update from
	beater      *detector.Beater

	// The peer stream (peers.go): replication to the ring successor; and
	// what is held for the predecessor — the calls it said ongoing.
	repl            round
	fromPredecessor map[proto.CallID]bool

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

	// idleReplies are the pendingReplies not waiting, for afterDBCost to
	// reuse; repliesOut counts those waiting.
	idleReplies []*pendingReply
	repliesOut  int

	// Metrics.
	finished        int
	jobsAccepted    int
	submitsReceived int
	dupResults      int
	rescheduled     int
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
	submits, accepted, finished, dups       *obs.Counter
	requeues                                [len(requeueReasonNames)]*obs.Counter
	persistErrs                             [len(persistPartNames)]*obs.Counter
	assignedPull, assignedPush              *obs.Counter
	resultsPoll, resultsPush, offersExpired *obs.Counter
	sessions, inflight                      *obs.Gauge
	idleSlots, jobs, waiting                *obs.Gauge
	repliesHeld                             [len(heldKindNames)]*obs.Counter
	repliesHeldNow                          *obs.Gauge
	collected                               *obs.Counter
	stale                                   func(kind string) *obs.Counter
	dispatchLat                             *obs.Histogram
}

type ongoingInfo struct {
	server     proto.NodeID
	task       proto.TaskID
	assignedAt time.Time
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
	_ node.Handler   = (*Coordinator)(nil)
	_ node.Forgetter = (*Coordinator)(nil)
)

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
	c.gate = newCommitGate(env, c.persistFailed, c.giveBackIfQuiet, &c.cm)
	c.env = c.gate
	c.stopped = false
	c.store = db.New(c.cfg.DBCost)
	c.initObs(env)
	eng, err := sched.New(sched.Config{
		Policy: c.cfg.Policy,
		Obs:    c.cfg.Obs.Registry(),
		Node:   env.Self(),
	})
	if err != nil {
		env.Logf("coordinator: %v; falling back to fcfs", err)
		eng, _ = sched.New(sched.Config{})
	}
	c.eng = eng
	c.ongoing = make(map[proto.CallID]ongoingInfo)
	c.byServer = make(map[proto.NodeID]map[proto.CallID]bool)
	c.queuedAt = make(map[proto.CallID]time.Time)
	c.collected = make(map[sessionKey]proto.RPCSeq)
	c.waiting = make(map[proto.CallID]bool)
	c.gc = newGarbage(c)
	c.repliesOut = 0
	c.offers = newOfferBook()
	c.subs = make(map[sessionKey]subscription)
	c.resultAcked = make(map[proto.NodeID]bool)
	c.dbEng = node.SerialResource{}
	c.predecessor = ""
	c.repl.restart()
	c.fromPredecessor = make(map[proto.CallID]bool)

	c.coords = statesync.MergeNodeLists(c.cfg.Coordinators, []proto.NodeID{env.Self()})

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
	c.repl.every(c.env, c.cfg.ReplicationPeriod, c.ReplicateNow)
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
	c.cm = coordMetrics{
		submits:  reg.Counter("rpcv_coord_submits_total", ls...),
		accepted: reg.Counter("rpcv_coord_jobs_accepted_total", ls...),
		finished: reg.Counter("rpcv_coord_finished_total", ls...),
		dups:     reg.Counter("rpcv_coord_dup_results_total", ls...),
		sessions: reg.Gauge("rpcv_coord_sessions", ls...),
		inflight: reg.Gauge("rpcv_coord_inflight", ls...),

		assignedPull:  reg.Counter("rpcv_coord_assigned_total", with(ls, "via", "pull")...),
		assignedPush:  reg.Counter("rpcv_coord_assigned_total", with(ls, "via", "push")...),
		resultsPoll:   reg.Counter("rpcv_coord_results_sent_total", with(ls, "via", "poll")...),
		resultsPush:   reg.Counter("rpcv_coord_results_sent_total", with(ls, "via", "push")...),
		offersExpired: reg.Counter("rpcv_coord_offers_expired_total", ls...),
		idleSlots:     reg.Gauge("rpcv_coord_idle_slots", ls...),

		repliesHeldNow: reg.Gauge("rpcv_coord_replies_held", ls...),

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
	for kind, name := range heldKindNames {
		c.cm.repliesHeld[kind] = reg.Counter("rpcv_coord_replies_held_total", with(ls, "kind", name)...)
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

// noteInflight refreshes the in-flight gauge after assignment
// bookkeeping changes.
func (c *Coordinator) noteInflight() { c.cm.inflight.SetInt(len(c.ongoing)) }

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
}

// Stop implements node.Handler.
//
//rpcv:loop-only
func (c *Coordinator) Stop() {
	c.stopped = true
	if c.gate != nil {
		c.gate.withhold() // what is held dies with the incarnation
	}
	if c.servers != nil {
		c.servers.Close()
	}
	if c.ring != nil {
		c.ring.Close()
	}
	for _, t := range []node.Timer{c.repl.timer, c.gc.timer} {
		if t != nil {
			t.Stop()
		}
	}
	if c.beater != nil {
		c.beater.Close()
	}
}

// epochKey is the durable key holding the coordinator's incarnation
// counter.
const epochKey = "coord/epoch"

func (c *Coordinator) loadEpoch() {
	if raw, ok := c.env.Disk().Read(epochKey); ok && len(raw) == 8 {
		for i := 0; i < 8; i++ {
			c.epoch |= uint64(raw[i]) << (8 * i)
		}
	}
	c.epoch++
	raw := make([]byte, 8)
	for i := 0; i < 8; i++ {
		raw[i] = byte(c.epoch >> (8 * i))
	}
	if err := c.env.Disk().Write(epochKey, raw); err != nil {
		c.env.Logf("coordinator: persist epoch: %v", err)
	}
}

// jobs is where the job table is kept, after the paper's "job
// descriptions in a database, for fast management, and file archives in
// an optimized file system": a small mutable header per job, named by
// its call and rewritten on every state transition, and each payload of
// at least proto.BlobMin bytes beside it as a blob of its own, written
// once — the params with suffix /p, the output with /o. A smaller
// payload stays in the header, which is then byte for byte the whole
// record earlier builds persisted. msglog has the order rules.
var jobs = msglog.Shelf{Headers: "coord/job/", Blobs: "coord/blob/", Suffixes: []string{"/p", "/o"}}

// jobKey is call's key on the jobs shelf, coord/job/<call>. It is made
// once per call and kept with the call's record in the job table
// (db.DB.Key), which every stage of the call and its delete reuse.
func jobKey(call proto.CallID) string { return call.Key(jobs.Headers) }

// persistPartNames labels the persist-error counters by the write that
// failed: the header, or the blob of a payload (its index on the shelf,
// plus one).
var persistPartNames = [...]string{"header", "params", "output"}

func (c *Coordinator) loadStore() {
	jobs.Sweep(c.env, "") // the blobs a crash left that no header names
	var dec proto.Decoder // one decoder: recovery interns repeated IDs
	disk := c.env.Disk()
	for _, key := range disk.Keys(jobs.Headers) {
		e, ok := jobs.Load(disk, key[len(jobs.Headers):])
		if !ok {
			continue
		}
		rec, err := dec.DecodeJobHeader(e.Data, e.Blobs[0], e.Blobs[1])
		switch {
		case err == nil:
		case rec != nil && rec.Call.Seq <= c.collected[sessionKey{rec.Call.User, rec.Call.Session}]:
			// Short of a blob, and not corrupt: a collection the crash cut
			// short, whose blobs go first. Finish it.
			c.gc.jobs = append(c.gc.jobs, gone{rec: rec, key: key})
			continue
		default:
			// Undecodable, or short of a blob: torn, or never durable.
			// The client's resync resends the call.
			c.env.Logf("coordinator: corrupt job record %s: %v", key, err)
			continue
		}
		c.put(rec)
		if proto.NamedPayloads(e.Data) == 0 && (len(rec.Params) >= proto.BlobMin || len(rec.Output) >= proto.BlobMin) {
			// A whole record from before the split: rewrite it in the
			// one layout, so nothing but this branch ever reads the old.
			c.persistJob(rec)
		}
		if rec.State == proto.TaskOngoing {
			// The assignment did not survive the crash; schedule anew.
			rec.State = proto.TaskPending
		}
		if rec.State == proto.TaskPending {
			c.enqueue(rec.Call)
		}
		// markDirty (not a bare assignment) so a restart re-feeds the
		// dirty set: the successor may have missed rounds while we were
		// down.
		c.markDirty(rec.Call)
	}
	c.jobsAccepted = c.store.Len()
	c.sweep()
}

// persistJob stages rec's current state for the disk: its header, and
// ahead of it the blob of each payload large enough to have one that the
// disk does not hold yet — the params at submit, the output when the
// result lands, nothing on assign or requeue, what a
// peer's copy changed on the replication paths. Nothing here waits for a
// write: staging order is commit order, so the group commit that makes
// the header durable covers the call's blobs too, and the replies of
// this transition that wait for the disk wait for that commit at the
// gate (commit.go) while the loop goes on.
//
// A failed write is logged and counted by part, never returned; the
// replies still waiting for it are withheld, and the protocol's resyncs
// repair what a crash would then lose. A header is not written after a
// blob of its own that is already known to have failed, and the call's
// next persist writes the blob again if the disk does not hold it. (A
// failure reported only with the header's commit leaves a header whose
// blob loadStore finds missing or short, and skips.)
//
// The store takes ownership of what it is handed: rec.Params and
// rec.Output are shared with it from here on, never copied, which is
// why nothing may modify a stored record's payload bytes in place.
func (c *Coordinator) persistJob(rec *proto.JobRecord) {
	// Encode before staging anything: the less time between a staged
	// blob and its header, the surer one group commit takes both.
	header, params, output := proto.EncodeJobHeader(rec)
	// What collection left for the disk rides this header's commit.
	c.flushGarbage()
	c.gate.stage(rec.Call)
	e := msglog.Entry{Key: c.store.Key(rec.Call, jobKey), Data: header, Blobs: [2][]byte{params, output}}
	if err := jobs.Stage(c.env, e, c.gate.done); err != nil {
		c.gate.unstage(err)
	}
}

// persistFailed counts and logs a failed write of call's: a blob's
// (msglog.PayloadError) or its header's.
func (c *Coordinator) persistFailed(call proto.CallID, err error) {
	part := 0
	var pe *msglog.PayloadError
	if errors.As(err, &pe) {
		part = pe.Index + 1
	}
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
	case *proto.Heartbeat:
		c.handleHeartbeat(from, m)
	case *proto.TaskResult:
		c.handleTaskResult(from, m)
	case *proto.ServerSync:
		c.handleServerSync(from, m)
	case *proto.HeartbeatAck:
		c.heard(from, m.Coordinators)
	case *proto.ReplicaUpdate:
		c.handleReplicaUpdate(from, m)
	case *proto.ReplicaAck:
		c.handleReplicaAck(from, m)
	default:
		c.env.Logf("coordinator: unexpected %s from %s", msg.Kind(), from)
	}
	// Whatever the message queued — a submission, a requeue after a
	// server sync, a replica's update — goes out now if a server's pull
	// is still waiting for it.
	c.dispatch()
}

// ForgetsMessages implements node.Forgetter: no handler keeps a message
// struct, or sends one on. What they keep is what it points to — a
// Submit's params and a TaskResult's output in the job record, a poll's
// session in its subscription, a ring member list — and apply copies
// each record of a ReplicaUpdate before storing it.
func (*Coordinator) ForgetsMessages() {}

// reply is what a handler decided to send once the database work it
// charged is done: msg to to, behind push to pushTo when a late reply
// rides the same decision (a result pushed to its session as the
// server's TaskResultAck goes), and whether it accepts a new job. It is
// a value: a reply that waits out a modelled cost waits in a pooled
// pendingReply, and one that does not goes straight to the commit gate.
type reply struct {
	to, pushTo proto.NodeID
	msg, push  proto.Message
	accepted   bool
}

// afterDBCost sends r after the virtual latency accumulated by database
// operations, so DB time is visible on the clock (this is the effect
// that makes figure 5's replication DB-bound). The database is a serial
// resource: concurrent batches queue behind one another. One timer per
// decision, armed where the handler decides, as long as the cost is; at
// zero cost — the shipped daemon's — r leaves at once.
func (c *Coordinator) afterDBCost(r reply) {
	cost := c.store.DrainCost()
	if cost <= 0 {
		c.send(&r)
		return
	}
	var p *pendingReply
	if n := len(c.idleReplies); n > 0 {
		p, c.idleReplies = c.idleReplies[n-1], c.idleReplies[:n-1]
	} else {
		p = &pendingReply{c: c}
		p.fire = p.fired
	}
	p.r = r
	c.repliesOut++
	c.env.After(c.dbEng.Acquire(c.env.Now(), cost), p.fire)
}

// send hands r to the commit gate. What a reply says of the table as it
// leaves is read now: a SubmitAck's MaxSeq, and the accepted counter.
func (c *Coordinator) send(r *reply) {
	if r.push != nil {
		c.env.Send(r.pushTo, r.push)
	}
	if r.accepted {
		c.jobsAccepted++
		c.cm.accepted.Inc()
	}
	if ack, ok := r.msg.(*proto.SubmitAck); ok {
		ack.MaxSeq = c.maxSeq(ack.Call.User, ack.Call.Session)
	}
	c.env.Send(r.to, r.msg)
}

// pendingReply is a reply waiting out its database cost. It is pooled on
// the coordinator, and fire, bound once, is the timer's callback.
type pendingReply struct {
	c    *Coordinator
	r    reply
	fire func()
}

// fired is the timer's callback: p goes back to the pool, its reply to
// the gate.
//
//rpcv:loop-only
func (p *pendingReply) fired() {
	c, r := p.c, p.r
	p.r = reply{}
	c.idleReplies = append(c.idleReplies, p)
	c.repliesOut--
	c.send(&r)
	c.giveBackIfQuiet()
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
	if _, status := c.lookup(m.Call); status != callUnknown {
		// Duplicate submission (client retry or resend after sync), of a
		// call still here or of one collected: acknowledge with the
		// current state, do not reset the job — and never run it again.
		// Re-reading the stored record is one charged lookup; the
		// existence check itself rides on the insert's key conflict.
		if status == callCollected {
			c.stale(m)
		}
		c.drop(m.Params)
		c.store.Get(m.Call)
		c.afterDBCost(reply{to: from, msg: &proto.SubmitAck{Call: m.Call}})
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
	c.put(rec)
	c.persistJob(rec)
	c.enqueue(m.Call)
	c.trace(m.Call, obs.StageEnqueue, string(from))
	c.markDirty(m.Call)
	c.afterDBCost(reply{to: from, msg: &proto.SubmitAck{Call: m.Call}, accepted: true})
}

// resultOf is a finished job's result as a client receives it, in a
// poll's reply or a late reply.
func resultOf(rec *proto.JobRecord) proto.Result {
	return proto.Result{Call: rec.Call, Output: rec.Output, Err: rec.ResultErr, Server: rec.Server}
}

// maxSeq returns the indexed maximum timestamp known for a session. The
// collected watermark is its floor: the calls below it were here.
func (c *Coordinator) maxSeq(user proto.UserID, session proto.SessionID) proto.RPCSeq {
	return max(c.store.MaxSeq(user, session), c.collected[sessionKey{user, session}])
}

func (c *Coordinator) handlePoll(from proto.NodeID, m *proto.Poll) {
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
	c.afterDBCost(reply{to: from, msg: &proto.Results{User: m.User, Session: m.Session, Results: out}})
}

func (c *Coordinator) handleSyncRequest(from proto.NodeID, m *proto.SyncRequest) {
	// The reply always carries the exact list of known sequence
	// numbers: the client's log may have holes *below* its maximum
	// (a submission lost on the best-effort network), which a bare
	// max-timestamp comparison cannot reveal. Below the collected
	// watermark the watermark itself is the list: every call there was
	// known, finished and acknowledged.
	w := c.collected[sessionKey{m.User, m.Session}]
	known := c.store.SessionSeqs(m.User, m.Session)
	above, _ := slices.BinarySearch(known, w+1)
	sync := &proto.SyncReply{
		User:      m.User,
		Session:   m.Session,
		MaxSeq:    c.maxSeq(m.User, m.Session),
		Collected: w,
		Known:     known[above:],
	}
	c.afterDBCost(reply{to: from, msg: sync})
}

// ---------------------------------------------------------------------
// Server interactions
// ---------------------------------------------------------------------

func (c *Coordinator) handleHeartbeat(from proto.NodeID, m *proto.Heartbeat) {
	switch m.Role {
	case proto.RoleServer:
		c.servers.Observe(from)
	case proto.RoleCoordinator:
		c.heard(from, []proto.NodeID{from})
	}
	var tasks []proto.TaskAssignment
	idle := 0
	if m.WantWork && m.Capacity > 0 {
		tasks = c.assign(from, min(m.Capacity, c.cfg.MaxTasksPerAck))
		c.cm.assignedPull.Add(uint64(len(tasks)))
		idle = m.Capacity - len(tasks)
	}
	if m.Role == proto.RoleServer {
		// What this pull leaves unused stands as the server's offer until
		// its next pull says otherwise.
		c.standingOffer(from, idle)
		if c.quietPull(from, len(tasks)) {
			return
		}
	}
	c.noteHeartbeatAck(from)
	c.afterDBCost(reply{to: from, msg: &proto.HeartbeatAck{From: c.env.Self(), Coordinators: c.coords, Tasks: tasks}})
}

// heard takes a message from a fellow coordinator — a ring heartbeat or
// its ack, or a replica update — as its sign of life: it feeds the ring
// monitor, and members join the ring's membership list.
func (c *Coordinator) heard(from proto.NodeID, members []proto.NodeID) {
	c.ring.Observe(from)
	if len(members) == 0 {
		return
	}
	c.mergeCoords(members)
}

// assign pops up to limit pending jobs from the engine, oldest first,
// and binds them to server. It serves a pull (handleHeartbeat) and a
// late reply to one (dispatch) alike.
func (c *Coordinator) assign(server proto.NodeID, limit int) []proto.TaskAssignment {
	var out []proto.TaskAssignment
	now := c.env.Now()
	for limit > 0 {
		call, ok := c.eng.Pop(server, now)
		if !ok {
			break
		}
		rec, have := c.store.Peek(call)
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
		c.persistJob(rec)
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
		c.drop(m.Output)
		c.env.Send(from, &proto.TaskResultAck{Task: m.Task})
		return
	case rec.State == proto.TaskFinished:
		c.dupResults++
		c.cm.dups.Inc()
		c.drop(m.Output)
		c.env.Send(from, &proto.TaskResultAck{Task: m.Task})
		return
	}
	rec.State = proto.TaskFinished
	rec.Output = m.Output
	rec.ResultErr = m.Err
	rec.Server = from
	c.finish(rec, true)
	c.trace(m.Task.Call, obs.StageResult, string(from))
	// A session that polled lately gets the result now, as one more
	// reply to that poll, rather than at its next one.
	r := reply{to: from, msg: &proto.TaskResultAck{Task: m.Task}}
	if client, push := c.subscriber(rec.Call); push {
		c.pushedResults++
		c.cm.resultsPush.Inc()
		r.pushTo, r.push = client, &proto.Results{User: rec.Call.User, Session: rec.Call.Session,
			Results: []proto.Result{resultOf(rec)}}
	}
	c.afterDBCost(r)
}

// finish stores rec, finished, as its call's record — a server's result,
// or a finish a peer sent — and ends what
// else the call had going here: its instances, its place in the queue,
// what was held of it for the predecessor. tell says whether the ring
// successor is to hear of it.
func (c *Coordinator) finish(rec *proto.JobRecord, tell bool) {
	call := rec.Call
	c.put(rec)
	c.persistJob(rec)
	// A server running an instance that did not win — the call was
	// requeued, and an earlier instance's result came first, here or
	// through replication — is sent a best-effort TaskCancel, so the
	// loser stops wasting cycles; one that already ran it has its
	// duplicate result deduplicated here.
	if info, ok := c.ongoing[call]; ok {
		delete(c.ongoing, call)
		delete(c.byServer[info.server], call)
		if info.server != rec.Server {
			c.env.Send(info.server, &proto.TaskCancel{Task: info.task})
		}
	}
	delete(c.fromPredecessor, call)
	c.noteInflight()
	c.unqueue(call)
	if tell {
		c.markDirty(call)
	}
	c.finished++
	c.cm.finished.Inc()
	if c.cfg.OnJobFinished != nil {
		c.cfg.OnJobFinished(call, c.env.Now())
	}
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
		c.requeue(call, requeueServerSync)
	}

	c.afterDBCost(reply{to: from, msg: &proto.ServerSyncReply{Resend: resend, Drop: drop}})
	if _, offering := c.offers.by[from]; len(m.Running) == 0 && !offering {
		// A server that synchronizes while running nothing — a fresh
		// or restarted one — asks for work only on its next beat; what
		// is queued need not wait a heartbeat period for that. One
		// slot is all a sync proves; a pull's larger offer stands.
		c.standingOffer(from, 1)
	}
}

// onServerSuspected implements the "on suspicion" replication strategy:
// schedule new instances of all RPC calls forwarded to the suspect.
func (c *Coordinator) onServerSuspected(server proto.NodeID) {
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
		info, ok := c.ongoing[call]
		if !ok || info.server != server {
			continue
		}
		delete(c.ongoing, call)
		c.requeue(call, requeueServerSuspected)
	}
	delete(c.byServer, server)
	c.dispatch()
}

// enqueue queues one pending call at the back; the engine's membership
// check makes every insertion path duplicate-safe. It reports whether
// the call was newly queued.
func (c *Coordinator) enqueue(call proto.CallID) bool {
	now := c.env.Now()
	queued := c.eng.Enqueue(call, 0, time.Time{}, now)
	if queued && c.cm.dispatchLat != nil {
		c.queuedAt[call] = now
	}
	return queued
}

func (c *Coordinator) unqueue(call proto.CallID) {
	c.eng.Unqueue(call)
	delete(c.queuedAt, call)
}

// requeueReason says which of the three paths re-issued a call.
type requeueReason int

const (
	requeueServerSync           requeueReason = iota // peer-wise sync: the server does not hold the assignment
	requeueServerSuspected                           // the assigned server went silent
	requeueCoordinatorSuspected                      // held for a ring predecessor that went silent
)

// requeueReasonNames is the reason as operators read it: the requeue
// span's detail and the reason label of rpcv_coord_requeues_total.
var requeueReasonNames = [...]string{
	requeueServerSync:           "server-sync",
	requeueServerSuspected:      "server-suspected",
	requeueCoordinatorSuspected: "coordinator-suspected",
}

// requeue is the single re-insertion path for every reissue of a lost,
// dying or withdrawn assignment (server suspicion, peer-wise sync,
// predecessor release): it resets the record to pending, re-queues it
// and counts the reissue in the rescheduled stat and under its reason,
// so no path can bypass the duplicate check or the accounting. It
// reports whether the call is schedulable again.
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
	c.persistJob(rec)
	if c.enqueue(call) {
		c.rescheduled++
		c.cm.requeues[reason].Inc()
		c.trace(call, obs.StageRequeue, requeueReasonNames[reason])
	}
	c.markDirty(call)
	return true
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
		ReplRounds:      c.repl.done,
		LastReplication: c.repl.took,
		Coordinators:    len(c.coords),
		KnownServers:    c.servers.Tracked(),
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

// SuspectedServers returns the servers currently under heartbeat
// suspicion. Event-loop only (statusz sections fetch it via rt.Do).
func (c *Coordinator) SuspectedServers() []proto.NodeID { return c.servers.Suspects() }

// SuspectedCoordinators returns the ring members currently under
// suspicion. Event-loop only.
func (c *Coordinator) SuspectedCoordinators() []proto.NodeID { return c.ring.Suspects() }

// FinishedCount returns the number of jobs first seen finished here.
func (c *Coordinator) FinishedCount() int { return c.finished }

// LastReplicationDuration returns the duration of the last completed
// replication round (figure 5's measured quantity).
func (c *Coordinator) LastReplicationDuration() time.Duration { return c.repl.took }

// ReplicationInFlight reports whether a round is awaiting its ack.
func (c *Coordinator) ReplicationInFlight() bool { return c.repl.pending }

// DB exposes the task database (tests only).
func (c *Coordinator) DB() *db.DB { return c.store }
