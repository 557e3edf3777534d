// Package server implements the RPC-V third tier: the worker (called
// "server" in the paper, "worker" in XtremWeb).
//
// A server pulls work from its preferred coordinator with periodic
// heartbeats (connection-less: the server always initiates, the
// coordinator only replies), executes the corresponding service in a
// sandbox, builds an archive of the outputs, durably logs it (the
// server-side logging protocol is necessarily pessimistic: the result
// archive *is* the log), and uploads it until acknowledged. If the
// preferred coordinator goes silent, the server suspects it, selects
// another one from its merged coordinator list and runs the peer-wise
// log synchronization before resuming.
//
// Off-line computing falls out of this design: a disconnected server
// keeps executing; results accumulate in the local log and flow to a
// coordinator whenever connectivity returns.
//
// Handler code may not block; service bodies may. A registered Service
// is code the server neither controls nor can bound, so its body never
// runs on the event loop: it goes through node.Offload (a goroutine of
// its own under internal/rt, inline under the simulator, where nothing
// blocks) and its completion comes back to the loop as a callback. The
// task stays in the running set from assignment until that callback
// runs, so while bodies execute the server keeps beating, and what it
// says is true: Heartbeat.Capacity is the slots really free,
// ServerSync.Running lists what is really executing or backlogged, and
// at most Config.Parallelism bodies run at once. Both of the
// coordinator's fault signals — heartbeat silence and the peer-wise
// comparison of its "ongoing" set with the server's — read a busy
// server as busy, not as dead or as having lost its assignments, so a
// service slower than the suspicion timeout is executed once.
package server

import (
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"rpcv/internal/detector"
	"rpcv/internal/msglog"
	"rpcv/internal/node"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/statesync"
)

// Service is a function executed in response to an RPC call. Params is
// the raw parameter payload; it returns the result payload or an error.
// Services must be stateless: RPC-V restricts the application scope to
// stateless services with at-least-once semantics, so a service may be
// executed more than once for the same call. Params is lent for the
// call: the body may read it, and keeps no reference after returning —
// the server hands a large one back to the runtime for the next task's
// params to be read into (node.Release). The slice a body returns
// becomes the server's — the result log keeps that very slice until the
// coordinator has acknowledged the result, and then the server hands a
// large one back to the runtime too — so a body returns bytes of its
// own, or params itself, which the server then keeps with the result;
// never a buffer it will write again or return again.
//
// A service may block for as long as it likes, and up to
// Config.Parallelism of them run at the same time, each on a goroutine
// of its own: a body must not share unsynchronized state with another.
// It may not be called from the event loop (rpcv-lint's loopexclusive
// reports a call of a value of this type from loop code); the server
// calls it through node.Offload. A body that panics fails its call, not
// the server.
//
//rpcv:blocking
type Service func(params []byte) ([]byte, error)

// Config parameterizes a server.
type Config struct {
	// Coordinators is the initial coordinator list.
	Coordinators []proto.NodeID

	// HeartbeatPeriod is the work-pull/heartbeat period. Default
	// detector.DefaultPeriod (5 s).
	HeartbeatPeriod time.Duration

	// SuspicionTimeout is the silence duration after which the
	// preferred coordinator is suspected. Default detector.DefaultTimeout.
	SuspicionTimeout time.Duration

	// Parallelism is the number of tasks executed concurrently: the
	// number of service bodies that may be running at one time (timed
	// synthetic tasks count too), and what an idle server's heartbeat
	// advertises as Capacity. Assignments beyond it wait in a local
	// backlog. Default 1 (a desktop machine donating its idle CPU).
	Parallelism int

	// Services maps service names to implementations. Tasks with a
	// positive ExecTime hint are synthetic: the server charges the
	// virtual execution time, then produces ResultSize bytes (or calls
	// the named service if registered).
	Services map[string]Service

	// OnTaskDone, when non-nil, is invoked when a task's execution
	// completes locally (before upload) — an experiment hook.
	OnTaskDone func(task proto.TaskID, at time.Time)

	// Obs, when non-nil, receives the server's live metrics (labeled
	// node="<self>") and span events: exec when a task's service body
	// finishes, logged-durable when its result hits the durable log.
	// Nil costs nothing.
	Obs *obs.Observer
}

func (c *Config) applyDefaults() {
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = detector.DefaultPeriod
	}
	if c.SuspicionTimeout <= 0 {
		c.SuspicionTimeout = detector.DefaultTimeout
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
}

// Server is the worker node handler. Its fields are loop-private:
// every access must come from handler code or be marshalled through
// rt.Do/DoAsync.
//
//rpcv:loop-owned
type Server struct {
	cfg Config
	env node.Env

	coords    []proto.NodeID
	preferred proto.NodeID
	monitor   *detector.Monitor
	beater    *detector.Beater

	// running holds every task that occupies an execution slot, from
	// assignment until its completion runs on the loop — a service body
	// executing off the loop included. The value is false once the
	// instance was cancelled while its body ran: a goroutine cannot be
	// killed, so the slot stays taken until the body returns (freeing it
	// early would run Parallelism+1 bodies), and the result is then
	// thrown away.
	running map[proto.TaskID]bool
	// started records when each running task began executing, so the
	// uploaded result can report the measured execution duration.
	started map[proto.TaskID]time.Time
	// timers holds each timed execution's timer until it fires, so a
	// TaskCancel can abort it and free the slot immediately instead of
	// letting the doomed execution occupy capacity to completion.
	timers map[proto.TaskID]node.Timer
	// backlog queues assignments received while at capacity (e.g. two
	// heartbeat replies in flight both granted work); they run as
	// capacity frees. Backlogged tasks count as alive for the sync
	// protocol but are lost on crash like running ones.
	backlog []proto.TaskAssignment
	// unacked holds completed results awaiting a TaskResultAck, each
	// with the key of its entry; it mirrors the durable result log.
	unacked map[proto.TaskID]logged
	// nextRetry throttles re-uploads of unacked results with
	// exponential backoff: a large archive still crossing the network
	// must not be re-sent on every heartbeat, or the transfers compound
	// faster than the coordinator can drain them.
	nextRetry map[proto.TaskID]time.Time
	attempts  map[proto.TaskID]int

	needSync  bool // run ServerSync before asking for work again
	beatCount int  // beats since the last periodic synchronization

	// results removes the result log's entries; idle holds the
	// executions not running, for startTask to reuse.
	results *msglog.Remover
	idle    []*execution

	stopped bool
	// incarnation counts Starts: an offloaded body's completion that
	// comes back after a Stop and a Start on this same struct belongs to
	// a crashed incarnation and must not touch the new one's tables.
	incarnation int

	executed  int
	uploaded  int
	dedup     int // assignments skipped because already running/done
	discarded int // cancelled instances whose execution was thrown away
	failovers int

	// sm mirrors the counters above into Config.Obs (nil-safe no-ops
	// when observability is off).
	sm serverMetrics
}

// serverMetrics holds the server's obs instruments.
type serverMetrics struct {
	executed, uploaded, dedup, discarded, failovers *obs.Counter
	running, backlog, unacked                       *obs.Gauge
	execTime                                        *obs.Histogram
}

// New creates a server handler.
func New(cfg Config) *Server {
	cfg.applyDefaults()
	return &Server{cfg: cfg}
}

var (
	_ node.Handler   = (*Server)(nil)
	_ node.Forgetter = (*Server)(nil)
)

// Start implements node.Handler. On restart, completed-but-unacked
// results are recovered from the durable result log and re-offered to
// the coordinator through synchronization; tasks that were mid-
// execution are simply lost (the coordinator will re-schedule them on
// suspicion — at-least-once semantics).
//
//rpcv:loop-only
func (s *Server) Start(env node.Env) {
	s.env = env
	s.stopped = false
	s.incarnation++
	s.running = make(map[proto.TaskID]bool)
	s.started = make(map[proto.TaskID]time.Time)
	s.timers = make(map[proto.TaskID]node.Timer)
	s.backlog = nil
	s.unacked = make(map[proto.TaskID]logged)
	s.results = msglog.NewRemover(env, msglog.Messages, func(key string, err error) {
		s.env.Logf("server: gc result log %s: %v", key, err)
	})
	s.nextRetry = make(map[proto.TaskID]time.Time)
	s.attempts = make(map[proto.TaskID]int)
	s.coords = statesync.MergeNodeLists(s.cfg.Coordinators)
	s.preferred = ""
	s.needSync = false

	reg := s.cfg.Obs.Registry()
	nl := obs.L("node", string(env.Self()))
	s.sm = serverMetrics{
		executed:  reg.Counter("rpcv_server_executed_total", nl),
		uploaded:  reg.Counter("rpcv_server_uploaded_total", nl),
		dedup:     reg.Counter("rpcv_server_dedup_total", nl),
		discarded: reg.Counter("rpcv_server_discarded_total", nl),
		failovers: reg.Counter("rpcv_server_failovers_total", nl),
		running:   reg.Gauge("rpcv_server_running", nl),
		backlog:   reg.Gauge("rpcv_server_backlog", nl),
		unacked:   reg.Gauge("rpcv_server_unacked", nl),
		execTime:  reg.Histogram("rpcv_server_exec_ns", nl),
	}

	s.loadResultLog()
	// Every incarnation synchronizes with its coordinator before asking
	// for work: the peer-wise log comparison re-offers unacked results
	// and tells the coordinator which assignments died with the
	// previous incarnation (intermittent crash), so they can be
	// re-scheduled without waiting for a suspicion timeout.
	s.needSync = true

	s.monitor = detector.NewMonitor(env, detector.MonitorConfig{
		Timeout:   s.cfg.SuspicionTimeout,
		OnSuspect: s.onCoordinatorSuspected,
	})
	s.pickPreferred()
	s.beater = detector.NewBeater(env, s.cfg.HeartbeatPeriod, s.beat)
	s.noteLoad()
}

// Coordinators returns a snapshot of the server's merged coordinator
// list. As a Server method it runs under the loop-owned discipline:
// call it from handler code, from rt.Do, or while the node is
// quiescent (tests between sim steps).
func (s *Server) Coordinators() []proto.NodeID {
	return append([]proto.NodeID(nil), s.coords...)
}

// trace stamps one span for call on this server's ring (no-op without
// observability).
func (s *Server) trace(call proto.CallID, stage obs.Stage, detail string) {
	if t := s.cfg.Obs.Tracer(); t != nil {
		t.EventAt(s.env.Now(), call, stage, detail)
	}
}

// noteLoad refreshes the load gauges after task bookkeeping changes.
func (s *Server) noteLoad() {
	s.sm.running.SetInt(len(s.running))
	s.sm.backlog.SetInt(len(s.backlog))
	s.sm.unacked.SetInt(len(s.unacked))
}

// Stop implements node.Handler.
//
//rpcv:loop-only
func (s *Server) Stop() {
	s.stopped = true
	if s.monitor != nil {
		s.monitor.Close()
	}
	if s.beater != nil {
		s.beater.Close()
	}
}

// resultPrefix opens the keys of the result log: one msglog entry per
// unacknowledged result, a large output stored beside its header.
const resultPrefix = "server/result/"

// logged is an unacknowledged result and the key of its log entry, made
// once, when the result is logged or recovered.
type logged struct {
	res *proto.TaskResult
	key string
}

func (s *Server) loadResultLog() {
	msglog.Messages.Sweep(s.env, resultPrefix)
	var dec proto.Decoder // one decoder: recovery interns repeated IDs
	for _, key := range s.env.Disk().Keys(resultPrefix) {
		entry, ok := msglog.Messages.Load(s.env.Disk(), key)
		if !ok {
			continue
		}
		msg, err := entry.Message(&dec)
		if err != nil {
			s.env.Logf("server: corrupt result log %s: %v", key, err)
			if errors.Is(err, proto.ErrCorrupt) {
				// Torn, or a header whose output is missing or short:
				// not logged. The coordinator re-issues the task.
				s.results.Remove(key, nil)
			}
			continue
		}
		if res, ok := msg.(*proto.TaskResult); ok {
			s.unacked[res.Task] = logged{res: res, key: key}
		}
	}
}

// resultKey names t's entry: resultPrefix + t.String() with every '/'
// as '_', one allocation.
func (s *Server) resultKey(t proto.TaskID) string { return t.Key(resultPrefix, '_') }

// pickPreferred chooses a preferred coordinator among the non-suspected
// ones, deterministically from the merged list.
func (s *Server) pickPreferred() {
	for _, id := range s.coords {
		if !s.monitor.Suspected(id) {
			if s.preferred != id {
				s.preferred = id
				s.monitor.Watch(id)
				s.needSync = true
			}
			return
		}
	}
	// Everyone suspected: keep trying the first (wrong suspicions are
	// normal; the progress condition needs us to keep knocking).
	if len(s.coords) > 0 {
		s.preferred = s.coords[0]
		s.needSync = true
	}
}

func (s *Server) onCoordinatorSuspected(id proto.NodeID) {
	if id != s.preferred {
		return
	}
	s.env.Logf("server: suspect coordinator %s, failing over", id)
	s.failovers++
	s.sm.failovers.Inc()
	s.pickPreferred()
}

// ---------------------------------------------------------------------
// Heartbeat / work pull
// ---------------------------------------------------------------------

// syncEveryBeats forces a periodic peer-wise synchronization even on a
// healthy server (roughly once a minute at the default 5 s period):
// the coordinator compares its "ongoing" view against the server's
// actual state, recovering assignments lost on the best-effort network
// that no crash or suspicion would ever surface.
const syncEveryBeats = 12

func (s *Server) beat() {
	if s.preferred == "" {
		s.pickPreferred()
		if s.preferred == "" {
			return
		}
	}
	s.beatCount++
	if s.needSync || s.beatCount%syncEveryBeats == 0 {
		s.sendSync()
		return
	}
	capacity := s.cfg.Parallelism - len(s.running) - len(s.backlog)
	hb := &proto.Heartbeat{
		From:     s.env.Self(),
		Role:     proto.RoleServer,
		Capacity: capacity,
		WantWork: capacity > 0,
	}
	s.env.Send(s.preferred, hb)
	s.retryUploads()
}

func (s *Server) sendSync() {
	tasks := sortedTaskIDs(s.unacked)
	running := make([]proto.TaskID, 0, len(s.running)+len(s.backlog))
	for t, wanted := range s.running {
		// A cancelled instance will never produce a result: claiming it
		// alive would make a coordinator that still counts on it wait.
		if wanted {
			running = append(running, t)
		}
	}
	sortTaskIDs(running)
	for i := range s.backlog {
		running = append(running, s.backlog[i].Task)
	}
	s.env.Send(s.preferred, &proto.ServerSync{From: s.env.Self(), Tasks: tasks, Running: running})
}

// retryBase is the first re-upload delay; it doubles per attempt up to
// retryCap (the result stays durably logged throughout).
const (
	retryBase = 10 * time.Second
	retryCap  = 5 * time.Minute
)

func (s *Server) retryUploads() {
	now := s.env.Now()
	for _, t := range sortedTaskIDs(s.unacked) {
		if now.Before(s.nextRetry[t]) {
			continue
		}
		s.env.Send(s.preferred, s.unacked[t].res)
		s.bumpRetry(t, now)
	}
}

func (s *Server) bumpRetry(t proto.TaskID, now time.Time) {
	d := retryBase << s.attempts[t]
	if d > retryCap {
		d = retryCap
	} else {
		s.attempts[t]++
	}
	s.nextRetry[t] = now.Add(d)
}

// sortedTaskIDs returns the map's keys in a stable order: protocol
// actions must not depend on Go's randomized map iteration, or runs
// stop being reproducible.
func sortedTaskIDs[V any](m map[proto.TaskID]V) []proto.TaskID {
	out := make([]proto.TaskID, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sortTaskIDs(out)
	return out
}

func sortTaskIDs(ts []proto.TaskID) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Call != ts[j].Call {
			return ts[i].Call.Less(ts[j].Call)
		}
		return ts[i].Instance < ts[j].Instance
	})
}

// Receive implements node.Handler.
//
//rpcv:loop-only
func (s *Server) Receive(from proto.NodeID, msg proto.Message) {
	if s.stopped {
		return
	}
	switch m := msg.(type) {
	case *proto.HeartbeatAck:
		s.handleHeartbeatAck(from, m)
	case *proto.TaskResultAck:
		s.handleResultAck(from, m)
	case *proto.TaskCancel:
		s.handleCancel(from, m)
	case *proto.ServerSyncReply:
		s.handleSyncReply(from, m)
	default:
		s.env.Logf("server: unexpected %s from %s", msg.Kind(), from)
	}
}

// ForgetsMessages implements node.Forgetter: no handler keeps a message
// struct. An assignment is copied into its execution or the backlog, the
// coordinator list is merged into the server's own, and what a handler
// sends is its own logged result, never what it received.
func (*Server) ForgetsMessages() {}

func (s *Server) handleHeartbeatAck(from proto.NodeID, m *proto.HeartbeatAck) {
	s.monitor.Observe(from)
	if len(m.Coordinators) > 0 {
		s.coords = statesync.MergeNodeLists(s.coords, m.Coordinators)
	}
	for i := range m.Tasks {
		s.startTask(&m.Tasks[i])
	}
}

func (s *Server) handleResultAck(from proto.NodeID, m *proto.TaskResultAck) {
	s.monitor.Observe(from)
	// The coordinator holds the result durably: garbage-collect the
	// local log entry (distributed GC of message logs).
	if s.forget(m.Task) {
		s.noteLoad()
	}
}

// forget lets an unacknowledged result go, reporting whether t had
// one: off the retry schedule, and its durable entry garbage-collected.
// The delete is staged where the disk batches: nothing here waits for
// the fsync that removes an entry the coordinator already holds. A
// failed delete is survivable — the entry is re-offered and re-acked
// after the next restart — but it means the log is not shrinking, so
// results says so. A large output — the service body's, or a task's
// params the body returned — goes back to the runtime (node.Release)
// once the entry is gone from the disk: nothing here holds it then, and
// the runtime sees to the uploads still queued.
func (s *Server) forget(t proto.TaskID) bool {
	r, ok := s.unacked[t]
	if !ok {
		return false
	}
	delete(s.unacked, t)
	delete(s.nextRetry, t)
	delete(s.attempts, t)
	var give []byte
	if len(r.res.Output) >= proto.BlobMin {
		give = r.res.Output
	}
	s.results.Remove(r.key, give)
	return true
}

// handleCancel withdraws one task instance: the coordinator stored
// another instance's result (a requeued call whose first instance
// finished after all, the race lost). Cancellation is
// idempotent at every stage — a backlogged instance is dropped, a
// timed one is aborted and its slot freed immediately, one whose
// service body is executing off the loop has its result discarded when
// the body returns (the slot stays taken until then), a completed-but-
// unacked one has its log entry garbage-collected, and an unknown one
// is ignored.
func (s *Server) handleCancel(from proto.NodeID, m *proto.TaskCancel) {
	s.monitor.Observe(from)
	for i := range s.backlog {
		if s.backlog[i].Task == m.Task {
			s.backlog = slices.Delete(s.backlog, i, i+1)
			s.discarded++
			s.sm.discarded.Inc()
			s.noteLoad()
			return
		}
	}
	if s.running[m.Task] {
		s.discarded++
		s.sm.discarded.Inc()
		tm := s.timers[m.Task]
		if tm == nil {
			// The service body is executing off the loop; finishTask
			// throws its result away and frees the slot.
			s.running[m.Task] = false
			return
		}
		// Abort the timed execution: stop its timer (the completion
		// never fires) and pull fresh work into the reclaimed slot.
		tm.Stop()
		delete(s.timers, m.Task)
		delete(s.running, m.Task)
		delete(s.started, m.Task)
		s.noteLoad()
		s.pullMoreWork()
		return
	}
	if s.forget(m.Task) {
		// The coordinator holds another result durably; this copy will
		// never be acked, so drop it like a TaskResultAck would.
		s.discarded++
		s.sm.discarded.Inc()
		s.noteLoad()
	}
}

func (s *Server) handleSyncReply(from proto.NodeID, m *proto.ServerSyncReply) {
	s.monitor.Observe(from)
	s.needSync = false
	for _, t := range m.Drop {
		s.forget(t)
	}
	for _, t := range m.Resend {
		if r, ok := s.unacked[t]; ok {
			s.env.Send(s.preferred, r.res)
			s.bumpRetry(t, s.env.Now())
		}
	}
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

func (s *Server) startTask(t *proto.TaskAssignment) {
	if _, held := s.running[t.Task]; held {
		// Running already — or cancelled with its body still executing,
		// in which case this is a stale copy of the assignment the
		// cancel withdrew.
		s.dedup++
		s.sm.dedup.Inc()
		return
	}
	if res, done := s.haveResultFor(t.Task.Call); done {
		// Already executed (another instance): resend, don't recompute.
		s.dedup++
		s.sm.dedup.Inc()
		s.env.Send(s.preferred, res)
		return
	}
	if s.runningCall(t.Task.Call) {
		// Another instance of the same call is already executing here
		// (a spurious reschedule); its result will serve both.
		s.dedup++
		s.sm.dedup.Inc()
		return
	}
	if len(s.running) >= s.cfg.Parallelism {
		// Over-assignment (two heartbeat replies in flight both granted
		// work): queue locally and run when capacity frees.
		s.backlog = append(s.backlog, *t)
		s.noteLoad()
		return
	}
	s.running[t.Task] = true
	s.started[t.Task] = s.env.Now()
	s.noteLoad()
	x := s.execution(t)
	if t.ExecTime > 0 {
		// Synthetic or timed service: charge virtual execution time.
		// The timer is retained so a TaskCancel can abort the execution
		// mid-flight (an execution whose timer is stopped is not reused).
		s.timers[t.Task] = s.env.After(t.ExecTime, x.run)
		return
	}
	x.start()
}

// execution is one task from its start to its result: the assignment,
// and what the service body produced, with the callbacks that carry it —
// the timer's, the body's run off the loop, and its completion back on
// the loop — bound once. An execution is pooled on its server, so
// running a task allocates nothing of its own.
type execution struct {
	s    *Server
	t    proto.TaskAssignment
	svc  Service
	born int // the incarnation that started the body
	out  outcome

	run, work, done func()
}

// execution takes an idle execution for t.
func (s *Server) execution(t *proto.TaskAssignment) *execution {
	var x *execution
	if n := len(s.idle); n > 0 {
		x, s.idle = s.idle[n-1], s.idle[:n-1]
	} else {
		x = &execution{s: s}
		x.run, x.work, x.done = x.start, x.call, x.returned
	}
	x.t = *t
	return x
}

// finish hands x back and finishes its task with out. No body reads
// the task's params any more, so a large one goes back to the runtime
// (node.Release) — unless the output is params itself, or a slice of
// its array: the result log holds that, and forget gives it back with
// the output.
func (s *Server) finish(x *execution, out outcome) {
	t := x.t
	x.t, x.svc, x.out = proto.TaskAssignment{}, nil, outcome{}
	s.idle = append(s.idle, x)
	s.finishTask(&t, out)
	if len(t.Params) >= proto.BlobMin && !sameArray(t.Params, out.output) {
		node.Release(s.env, t.Params)
	}
}

// sameArray reports whether a and b are slices of one array: two slices
// of an array share its last element when extended to their capacity.
func sameArray(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// runningCall reports whether any running (and not cancelled) or
// backlogged task executes the given call.
func (s *Server) runningCall(call proto.CallID) bool {
	for t, wanted := range s.running {
		if wanted && t.Call == call {
			return true
		}
	}
	for i := range s.backlog {
		if s.backlog[i].Task.Call == call {
			return true
		}
	}
	return false
}

func (s *Server) haveResultFor(call proto.CallID) (*proto.TaskResult, bool) {
	for t, r := range s.unacked {
		if t.Call == call {
			return r.res, true
		}
	}
	return nil, false
}

// start produces the task's output and hands it to finishTask. A
// registered service body runs off the event loop (node.Offload): it
// may block for as long as it likes while the loop keeps beating with
// the task still in running. The body's run (call) shares nothing with
// the loop but svc, the parameters and the outcome it crosses back in,
// which the completion (returned) reads after it has returned.
//
//rpcv:loop-only
func (x *execution) start() {
	s := x.s
	if s.stopped {
		return
	}
	delete(s.timers, x.t.Task)
	svc, ok := s.cfg.Services[x.t.Service]
	if !ok {
		s.finish(x, synthesize(&x.t))
		return
	}
	x.svc, x.born = svc, s.incarnation
	node.Offload(s.env, x.work, x.done)
}

// call runs the service body, off the event loop.
func (x *execution) call() { x.out = callService(x.svc, x.t.Params) }

// returned is the body's completion, on the loop.
//
//rpcv:loop-only
func (x *execution) returned() {
	s := x.s
	if s.stopped || x.born != s.incarnation {
		return // the incarnation that started this body is gone
	}
	if x.out.stack != nil {
		s.env.Logf("server: service %q panicked on %s: %s\n%s", x.t.Service, x.t.Task, x.out.errStr, x.out.stack)
	}
	s.finish(x, x.out)
}

// outcome is what a service body produced: its output or its error,
// and the stack when the error is a recovered panic.
type outcome struct {
	output []byte
	errStr string
	stack  []byte
}

// callService runs one service body, off the event loop. A panic is
// that call's failure, reported like a returned error: letting it
// unwind would kill the whole server, and at-least-once would then feed
// the same poison call to the next server, and the next.
func callService(svc Service, params []byte) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = outcome{errStr: fmt.Sprintf("service panicked: %v", r), stack: debug.Stack()}
		}
	}()
	output, err := svc(params)
	if err != nil {
		return outcome{errStr: err.Error()}
	}
	return outcome{output: output}
}

// finishTask frees the task's slot, then durably logs and uploads the
// result. The log write precedes the upload (pessimistic logging).
func (s *Server) finishTask(t *proto.TaskAssignment, out outcome) {
	wanted := s.running[t.Task]
	delete(s.running, t.Task)
	// Measure execution only now that the service body has returned:
	// real services take wall-clock time in runTask, while timed tasks
	// already charged their virtual duration through the timer.
	var exec time.Duration
	if at, ok := s.started[t.Task]; ok {
		exec = s.env.Now().Sub(at)
		delete(s.started, t.Task)
	}
	if !wanted {
		// Cancelled while the body ran (counted then): nothing is
		// logged or uploaded, the slot is all there is to give back.
		s.noteLoad()
		s.pullMoreWork()
		return
	}
	s.executed++
	s.sm.executed.Inc()
	s.sm.execTime.ObserveDuration(exec)
	s.trace(t.Task.Call, obs.StageExec, exec.String())
	if s.cfg.OnTaskDone != nil {
		s.cfg.OnTaskDone(t.Task, s.env.Now())
	}
	res := &proto.TaskResult{From: s.env.Self(), Task: t.Task, Output: out.output, Err: out.errStr, Exec: exec}
	key := s.resultKey(t.Task)
	if err := msglog.Messages.Write(s.env, msglog.EntryOf(key, res)); err != nil {
		s.env.Logf("server: log result %s: %v", t.Task, err)
	} else {
		s.trace(t.Task.Call, obs.StageDurable, "result log")
	}
	s.unacked[t.Task] = logged{res: res, key: key}
	s.env.Send(s.preferred, res)
	s.bumpRetry(t.Task, s.env.Now())
	s.uploaded++
	s.sm.uploaded.Inc()
	s.noteLoad()
	s.pullMoreWork()
}

// pullMoreWork starts backlogged work first; otherwise it pulls the
// next task immediately instead of idling until the next periodic
// heartbeat (XtremWeb workers issue a work request right after a
// result).
func (s *Server) pullMoreWork() {
	for len(s.backlog) > 0 && len(s.running) < s.cfg.Parallelism {
		next := s.backlog[0]
		s.backlog = slices.Delete(s.backlog, 0, 1)
		s.startTask(&next)
	}
	if !s.needSync && len(s.running)+len(s.backlog) < s.cfg.Parallelism {
		s.env.Send(s.preferred, &proto.Heartbeat{
			From:     s.env.Self(),
			Role:     proto.RoleServer,
			Capacity: s.cfg.Parallelism - len(s.running) - len(s.backlog),
			WantWork: true,
		})
	}
}

// synthesize is the output of a task that names no registered service.
func synthesize(t *proto.TaskAssignment) outcome {
	if t.ExecTime > 0 || t.ResultSize > 0 {
		// Synthetic benchmark service: produce the configured payload.
		return outcome{output: makePayload(t.Task, t.ResultSize)}
	}
	return outcome{errStr: fmt.Sprintf("server: unknown service %q", t.Service)}
}

// makePayload builds a deterministic pseudo-payload of the given size.
func makePayload(t proto.TaskID, size int) []byte {
	if size <= 0 {
		return []byte(t.String())
	}
	out := make([]byte, size)
	seed := t.String()
	for i := range out {
		out[i] = seed[i%len(seed)] ^ byte(i)
	}
	return out
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

// Stats is a snapshot of server counters.
type Stats struct {
	Executed  int
	Uploaded  int
	Unacked   int
	Running   int
	Backlog   int
	Dedup     int
	Discarded int
	Failovers int
	Preferred proto.NodeID
}

// StatsNow returns current counters. Event-loop only.
func (s *Server) StatsNow() Stats {
	return Stats{
		Executed:  s.executed,
		Uploaded:  s.uploaded,
		Unacked:   len(s.unacked),
		Running:   len(s.running),
		Backlog:   len(s.backlog),
		Dedup:     s.dedup,
		Discarded: s.discarded,
		Failovers: s.failovers,
		Preferred: s.preferred,
	}
}

// Preferred returns the current preferred coordinator (tests).
func (s *Server) Preferred() proto.NodeID { return s.preferred }
