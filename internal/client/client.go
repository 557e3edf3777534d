// Package client implements the RPC-V first tier: the application-side
// component that submits RPC calls and collects results.
//
// The client never contacts servers: all calls go to its preferred
// coordinator, which virtualizes the execution (three-tier
// architecture). Submissions are non-blocking and tagged with a
// per-session counter; every outgoing submission is recorded in the
// sender-based message log using one of the three strategies of
// figure 4. Results are collected by periodically pulling the
// coordinator; submission and collection run concurrently.
//
// On coordinator silence the client suspects it, selects another from
// its list and synchronizes states from the local log (timestamp
// comparison). On restart after a crash, the client reloads its log,
// resynchronizes, and resumes exactly after the last RPC call
// registered on the Coordinator.
//
// # What the client keeps
//
// Logging capacities are bounded, so the paper distributes garbage
// collection among all components, triggered locally by conditions.
// The client's conditions: a call's Submit, parameters and log entry
// are dropped the moment its result is delivered (the information is
// safely held by the application and on the coordinator), and the call
// itself once the result watermark — the Ack of the next Poll — has
// passed it, at which point the coordinator collects it too (see
// proto.Poll; AckSoon brings that Poll forward for whoever asks). The
// client therefore tracks the calls in flight, not the
// session's history, and its log holds the calls without a result —
// plus the entry of the highest call delivered, kept so that the
// highest entry still says where the sequence counter stands. The
// watermark is kept beside the log, so a restart resumes it rather
// than asking again for what the session has acknowledged; a client
// that lost its store learns it from the coordinator's SyncReply — and
// has to, before it numbers a call: the coordinator acknowledges a
// Submit at or below the watermark and never runs it. A caller that
// cannot rule out such a history submits through AfterSync.
package client

import (
	"encoding/binary"
	"errors"
	"strconv"
	"time"

	"rpcv/internal/detector"
	"rpcv/internal/fifo"
	"rpcv/internal/msglog"
	"rpcv/internal/node"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/statesync"
)

// Config parameterizes a client.
type Config struct {
	// User and Session identify this client instance's call IDs.
	User    proto.UserID
	Session proto.SessionID

	// Coordinators is the initial coordinator list.
	Coordinators []proto.NodeID

	// PollPeriod is the result-pull period. Default 1 s (the confined
	// platform pulls aggressively; real deployments may stretch this).
	PollPeriod time.Duration

	// SuspicionTimeout is the silence duration after which the
	// preferred coordinator is suspected. Default detector.DefaultTimeout.
	SuspicionTimeout time.Duration

	// Logging selects the message-logging strategy (figure 4).
	Logging msglog.Strategy

	// Disk is a modelled cost of the paper's testbed — one log write
	// (nil means msglog.IDEDisk()) — charged as virtual time before the
	// entry counts as durable. It belongs to the simulator, whose
	// builder (internal/cluster) leaves it nil. The real runtime
	// ignores it: the store's group commit owns the timing (msglog's
	// node.BatchDisk routing).
	Disk msglog.DiskModel

	// OnResult, when non-nil, is invoked once per completed call when
	// its result first reaches the client.
	OnResult func(res proto.Result, at time.Time)

	// OnSubmitComplete, when non-nil, is invoked when a submission
	// operation completes per the logging strategy's definition of
	// completion — the quantity figure 4 measures.
	OnSubmitComplete func(seq proto.RPCSeq, issued, completed time.Time)

	// AckResyncTimeout bounds how long a submission may stay
	// unacknowledged before the client triggers a synchronization to
	// resend it (a Submit lost on the best-effort network leaves no
	// other trace). Zero means 2x SuspicionTimeout; negative disables
	// the check (benchmarks measuring raw submission cost).
	AckResyncTimeout time.Duration

	// Obs, when non-nil, receives labeled metrics (submissions,
	// completions, failovers, syncs, pending calls, submit-to-result
	// latency) and per-call lifecycle trace spans
	// (submit, logged-durable, ack). Nil disables instrumentation at
	// zero cost.
	Obs *obs.Observer
}

func (c *Config) applyDefaults() {
	if c.PollPeriod <= 0 {
		c.PollPeriod = time.Second
	}
	if c.SuspicionTimeout <= 0 {
		c.SuspicionTimeout = detector.DefaultTimeout
	}
	if c.User == "" {
		c.User = "user"
	}
	if c.AckResyncTimeout == 0 {
		c.AckResyncTimeout = 2 * c.SuspicionTimeout
	}
}

// call tracks one submitted RPC on the client.
//
// A submission operation is *complete* — the quantity figure 4 measures
// — when (a) the coordinator acknowledged the registration (the call
// and its parameters crossed the network and entered the database) and
// (b) the logging strategy's gate cleared: immediately for optimistic,
// after the durable write for the pessimistic protocols. For blocking
// pessimistic the write precedes the send, so (b) always precedes (a).
type call struct {
	seq        proto.RPCSeq
	key        string       // its entry's key in the submission log, made once
	submit     proto.Submit // zeroed with the log entry at delivery (undelivered); only copies are sent
	issued     time.Time
	lastResent time.Time // last (re)transmission, for the ack check
	logDone    bool      // the strategy's logging gate has cleared
	acked      bool      // coordinator acknowledged registration
	completed  bool      // both conditions met; callback fired
	resulted   bool      // its result arrived: the three fields below hold it
	// The call's result, copied out of the Results message that
	// delivered it, whose list goes back with it; its CallID is the
	// call's.
	output    []byte
	resultErr string
	server    proto.NodeID
}

// Client is the application-side node handler. Its fields are
// loop-private: every access must come from handler code or be
// marshalled through rt.Do/DoAsync.
//
//rpcv:loop-owned
type Client struct {
	cfg Config
	env node.Env

	log     *msglog.Log
	coords  []proto.NodeID
	pref    proto.NodeID
	monitor *detector.Monitor

	syncSentAt time.Time // when the pending sync request left; zero when none is pending

	// synced says that this incarnation has heard the coordinator's view
	// of the session (a SyncReply); waiting is what AfterSync holds back
	// until then.
	synced  bool
	waiting []func()

	// calls holds the session's calls above the result watermark, keyed
	// by seq in ack+1..nextSeq. ack is that watermark — every seq in
	// 1..ack had its result delivered, by this incarnation or an earlier
	// one — advanced lazily by pollNow, which also drops the calls it
	// passes; pending counts the tracked calls without a result. held
	// is the delivered call whose log entry stays (see release).
	nextSeq proto.RPCSeq
	calls   map[proto.RPCSeq]*call
	ack     proto.RPCSeq
	pending int
	held    proto.RPCSeq
	heldKey string // held's key in the log; "" while nothing is held

	// Callbacks bound once: the completion of each submission's log
	// gate, and of each watermark write, and AckSoon's timer. The log
	// completes its entries in the order they were staged, so logged
	// takes the oldest call from logging, the calls whose gate has yet to
	// clear in the order they were logged.
	logged           func()
	logging          fifo.Queue[*call]
	watermarkWritten func(error)
	ackSoonFired     func()

	pollTimer node.Timer
	ackTimer  node.Timer
	ackSoon   node.Timer // AckSoon's, until it has fired
	stopped   bool

	submitted int
	completed int
	acked     int
	failovers int
	syncs     int

	cm clientMetrics
}

// clientMetrics holds the client's registered obs instruments. All
// fields no-op when nil (Config.Obs unset).
type clientMetrics struct {
	submitted, completed, results, failovers, syncs *obs.Counter
	pending, tracked                                *obs.Gauge
	callLatency                                     *obs.Histogram
}

// New creates a client handler.
func New(cfg Config) *Client {
	cfg.applyDefaults()
	c := &Client{cfg: cfg}
	c.logged, c.watermarkWritten, c.ackSoonFired = c.submitLogged, c.watermarkDone, c.ackNow
	return c
}

var (
	_ node.Handler   = (*Client)(nil)
	_ node.Forgetter = (*Client)(nil)
)

// Start implements node.Handler. A restarting client replays its
// durable submission log: the application rolls back to the point
// exactly following the last registered call.
//
//rpcv:loop-only
func (c *Client) Start(env node.Env) {
	c.env = env
	c.stopped = false
	c.calls = make(map[proto.RPCSeq]*call)
	c.coords = statesync.MergeNodeLists(c.cfg.Coordinators)
	c.syncSentAt = time.Time{}
	c.synced, c.waiting, c.ackSoon = false, nil, nil
	c.logging.Reset() // the last incarnation's log completes nothing more
	c.log = msglog.New(env, msglog.Config{
		Prefix:   "client/submit/",
		Strategy: c.cfg.Logging,
		Disk:     c.cfg.Disk,
	})
	if reg := c.cfg.Obs.Registry(); reg != nil {
		n := obs.L("node", string(env.Self()))
		c.cm = clientMetrics{
			submitted:   reg.Counter("rpcv_client_submitted_total", n),
			completed:   reg.Counter("rpcv_client_submit_completed_total", n),
			results:     reg.Counter("rpcv_client_results_total", n),
			failovers:   reg.Counter("rpcv_client_failovers_total", n),
			syncs:       reg.Counter("rpcv_client_syncs_total", n),
			pending:     reg.Gauge("rpcv_client_pending_calls", n),
			tracked:     reg.Gauge("rpcv_client_calls_tracked", n),
			callLatency: reg.Histogram("rpcv_client_call_latency_ns", n),
		}
	}
	c.nextSeq, c.ack, c.pending, c.held, c.heldKey, c.acked = 0, 0, 0, 0, "", 0
	c.cm.pending.SetInt(0)
	c.recoverFromLog()

	c.monitor = detector.NewMonitor(env, detector.MonitorConfig{
		Timeout:   c.cfg.SuspicionTimeout,
		OnSuspect: c.onCoordinatorSuspected,
	})
	c.pickPreferred()
	// Synchronize with the coordinator only when there is state to
	// reconcile (a restart with recovered calls or a watermark); a
	// pristine client has nothing to exchange, and an initial sync would
	// race its first submissions, duplicating them. An empty store does
	// not tell a pristine session from a relaunched one that lost it: the
	// caller who knows numbers its calls through AfterSync.
	if c.pref != "" && (len(c.calls) > 0 || c.ack > 0) {
		c.sendSync()
	}
	c.schedulePoll()
	c.scheduleAckCheck()
}

// trace records one lifecycle span for a call on this node's tracer.
func (c *Client) trace(call proto.CallID, stage obs.Stage, detail string) {
	c.cfg.Obs.Tracer().EventAt(c.env.Now(), call, stage, detail)
}

// track registers a call that has no result yet.
func (c *Client) track(seq proto.RPCSeq, cl *call) {
	cl.seq = seq
	c.calls[seq] = cl
	if seq > c.nextSeq {
		c.nextSeq = seq
	}
	if cl.acked {
		c.acked++
	}
	c.pending++
	c.cm.pending.SetInt(c.pending)
	c.cm.tracked.SetInt(len(c.calls))
}

// logKey is a call's key in the submission log: seq in decimal, zero-
// padded to 20 digits (fmt's "%020d", which a uint64 never overflows),
// in one allocation.
func logKey(seq proto.RPCSeq) string {
	var key [20]byte
	for i := len(key) - 1; i >= 0; i-- {
		key[i] = byte('0' + seq%10)
		seq /= 10
	}
	return string(key[:])
}

// release drops what only an undelivered call needs: its Submit, the
// parameters it holds — the caller's own slice, which the log shared —
// and its log entry. The entry of the highest call released so far
// outlives it, until a higher one takes its place: a restart resumes
// the sequence counter at the highest entry, which must not fall below
// a seq the session has used.
func (c *Client) release(cl *call) {
	if !cl.undelivered() {
		return
	}
	cl.submit = proto.Submit{}
	c.hold(cl.seq, cl.key)
}

// undelivered reports whether cl still holds its Submit: a call's seq is
// never 0, so only a released one reads 0.
func (cl *call) undelivered() bool { return cl.submit.Call.Seq != 0 }

// hold makes seq's log entry, under key, the one that outlives its call
// if it is the highest released so far, and drops the entry it
// replaces, or seq's own. Only the key matters from here on: the
// parameters stored beside a held entry go back to the caller now.
func (c *Client) hold(seq proto.RPCSeq, key string) {
	drop := key
	if seq > c.held {
		c.log.Release(key)
		c.held, drop, c.heldKey = seq, c.heldKey, key
	}
	if drop != "" {
		c.log.Drop(drop)
	}
}

// watermarkKey holds the result watermark, so that a restart does not
// ask again for what the session acknowledged.
const watermarkKey = "client/watermark"

// passed advances the result watermark to upTo and stops tracking the
// calls at or below it.
func (c *Client) passed(upTo proto.RPCSeq) {
	for seq, cl := range c.calls { // by the map, not by seq: a wiped client learns a watermark far above 0
		if seq > upTo {
			continue
		}
		if !cl.resulted {
			c.pending--
		}
		c.release(cl)
		delete(c.calls, seq)
	}
	c.ack = upTo
	if c.nextSeq < upTo {
		c.nextSeq = upTo
	}
	c.cm.pending.SetInt(c.pending)
	c.cm.tracked.SetInt(len(c.calls))
	node.WriteAsync(c.env.Disk(), watermarkKey, binary.AppendUvarint(nil, uint64(upTo)), c.watermarkWritten)
}

func (c *Client) watermarkDone(err error) {
	if err != nil {
		// The record stays behind; the coordinator's reply to the next
		// incarnation's first sync makes up for it.
		c.env.Logf("client: persist watermark: %v", err)
	}
}

// deliver stores a copy of the first result to arrive for a tracked
// call: res points into the message that brought it.
func (c *Client) deliver(cl *call, res *proto.Result) {
	cl.resulted, cl.output, cl.resultErr, cl.server = true, res.Output, res.Err, res.Server
	c.release(cl)
	c.pending--
	c.cm.pending.SetInt(c.pending)
	c.cm.results.Inc()
	if c.cm.callLatency != nil && !cl.issued.IsZero() {
		c.cm.callLatency.Observe(int64(c.env.Now().Sub(cl.issued)))
	}
	c.trace(res.Call, obs.StageAck, "result delivered")
	if c.cfg.OnResult != nil {
		c.cfg.OnResult(*res, c.env.Now())
	}
}

// scheduleAckCheck periodically verifies that every submission was
// acknowledged; a long-unacked call means the Submit (or its ack) was
// lost, and a synchronization will resend it. This is the paper's
// "components synchronize their local state from these logs on each
// communication", run proactively. Only calls above the result
// watermark can qualify: a call with a result is registered by
// definition.
func (c *Client) scheduleAckCheck() {
	if c.cfg.AckResyncTimeout < 0 {
		return
	}
	c.ackTimer = c.env.After(c.cfg.AckResyncTimeout/2, func() {
		now := c.env.Now()
		for seq := c.ack + 1; seq <= c.nextSeq; seq++ {
			cl := c.calls[seq]
			if cl != nil && cl.undelivered() && !cl.acked && !cl.resulted &&
				now.Sub(cl.lastResent) >= c.cfg.AckResyncTimeout {
				c.sendSync()
				break
			}
		}
		if !c.stopped {
			c.scheduleAckCheck()
		}
	})
}

// Stop implements node.Handler.
//
//rpcv:loop-only
func (c *Client) Stop() {
	c.stopped = true
	if c.monitor != nil {
		c.monitor.Close()
	}
	if c.pollTimer != nil {
		c.pollTimer.Stop()
	}
	if c.ackTimer != nil {
		c.ackTimer.Stop()
	}
	if c.ackSoon != nil {
		c.ackSoon.Stop()
	}
	if c.log != nil {
		c.log.Close()
	}
}

func (c *Client) recoverFromLog() {
	if raw, ok := c.env.Disk().Read(watermarkKey); ok {
		if ack, n := binary.Uvarint(raw); n > 0 {
			c.ack, c.nextSeq = proto.RPCSeq(ack), proto.RPCSeq(ack)
		} else {
			c.env.Logf("client: corrupt watermark record; the coordinator's reply to the first sync restores it")
		}
	}
	var dec proto.Decoder // one decoder: recovery interns repeated IDs
	for _, key := range c.log.Keys() {
		entry, ok := c.log.Get(key)
		if !ok {
			continue
		}
		msg, err := entry.Message(&dec)
		if err != nil {
			seq, badKey := strconv.ParseUint(key, 10, 64)
			if !errors.Is(err, proto.ErrCorrupt) || badKey != nil {
				c.env.Logf("client: unreadable log entry %s: %v", key, err)
				continue
			}
			// A header whose parameters are gone — the entry a delivered
			// call left held, a drop the crash cut short — or a torn
			// write: no message, and nothing can ever be resent from
			// it. Its key still says the seq was used.
			if used := proto.RPCSeq(seq); used <= c.ack {
				c.log.Drop(entry.Key)
			} else {
				c.nextSeq = max(c.nextSeq, used)
				c.hold(used, entry.Key)
			}
			continue
		}
		sub, ok := msg.(*proto.Submit)
		if !ok {
			continue
		}
		if sub.Call.Seq <= c.ack {
			c.log.Drop(entry.Key) // delivered and acknowledged; only the drop was lost
			continue
		}
		c.track(sub.Call.Seq, &call{
			key: entry.Key, submit: *sub, issued: c.env.Now(),
			logDone: true, acked: true, completed: true,
		})
	}
	if len(c.calls) > 0 || c.ack > 0 {
		c.env.Logf("client: recovered %d calls from log above watermark %d, resuming at seq %d", len(c.calls), c.ack, c.nextSeq+1)
	}
}

// pickPreferred prefers the first unsuspected coordinator in the merged
// list's common sorted order, the client's failover order.
func (c *Client) pickPreferred() {
	for _, id := range c.coords {
		if !c.monitor.Suspected(id) {
			if c.pref != id {
				c.pref = id
				c.monitor.Watch(id)
			}
			return
		}
	}
	if len(c.coords) > 0 {
		c.pref = c.coords[0]
	}
}

func (c *Client) onCoordinatorSuspected(id proto.NodeID) {
	if id != c.pref {
		return
	}
	c.env.Logf("client: suspect coordinator %s, failing over", id)
	c.failovers++
	c.cm.failovers.Inc()
	c.pickPreferred()
	c.sendSync()
}

// ForcePreferred overrides coordinator selection (figure 11 forces the
// client to submit to a specific coordinator).
func (c *Client) ForcePreferred(id proto.NodeID) {
	c.pref = id
	c.monitor.Watch(id)
}

// ---------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------

// Submit issues one non-blocking RPC call and returns its sequence
// number. Event-loop only (experiments schedule it onto the loop).
func (c *Client) Submit(service string, params []byte, execTime time.Duration, resultSize int) proto.RPCSeq {
	c.nextSeq++
	seq := c.nextSeq
	cl := &call{key: c.log.Key(logKey(seq)), issued: c.env.Now(), lastResent: c.env.Now(), submit: proto.Submit{
		Call:       proto.CallID{User: c.cfg.User, Session: c.cfg.Session, Seq: seq},
		Service:    service,
		Params:     params,
		ExecTime:   execTime,
		ResultSize: resultSize,
	}}
	c.track(seq, cl)
	c.submitted++
	c.cm.submitted.Inc()
	c.trace(cl.submit.Call, obs.StageSubmit, service)
	c.sendSubmit(cl)
	return seq
}

func (c *Client) sendSubmit(cl *call) {
	c.logging.Push(cl)
	c.log.LogAndSend(c.pref, proto.Pooled(cl.submit), msglog.EntryOf(cl.key, &cl.submit), c.logged)
}

// submitLogged clears the log gate of the oldest submission logged.
func (c *Client) submitLogged() {
	cl := c.logging.Pop()
	cl.logDone = true
	// From the seq: the gate may clear after the result has dropped the Submit.
	c.trace(proto.CallID{User: c.cfg.User, Session: c.cfg.Session, Seq: cl.seq}, obs.StageDurable, "submit log")
	c.maybeComplete(cl)
}

// maybeComplete fires the submission-complete callback once both the
// log gate and the coordinator ack are in.
func (c *Client) maybeComplete(cl *call) {
	if cl.completed || !cl.logDone || !cl.acked {
		return
	}
	cl.completed = true
	c.completed++
	c.cm.completed.Inc()
	if c.cfg.OnSubmitComplete != nil {
		c.cfg.OnSubmitComplete(cl.seq, cl.issued, c.env.Now())
	}
}

// resendSubmit retransmits a logged submission (synchronization found
// it missing on the coordinator). No completion callback: the original
// operation already completed from the application's point of view.
func (c *Client) resendSubmit(seq proto.RPCSeq) {
	cl, ok := c.calls[seq]
	if !ok || !cl.undelivered() {
		return
	}
	cl.lastResent = c.env.Now()
	c.env.Send(c.pref, proto.Pooled(cl.submit))
}

// ---------------------------------------------------------------------
// Result collection
// ---------------------------------------------------------------------

func (c *Client) schedulePoll() {
	c.pollTimer = c.env.After(c.cfg.PollPeriod, func() {
		if len(c.waiting) > 0 {
			c.sendSync() // no reply yet: ask again; the reply polls
		} else {
			c.pollNow()
		}
		if !c.stopped {
			c.schedulePoll()
		}
	})
}

// pollNow asks the preferred coordinator for the results this client
// does not hold yet (see proto.Poll): everything but 1..ack and the
// results above the watermark, which finished ahead of an earlier call.
// The cost follows the calls in flight, not the session's age.
func (c *Client) pollNow() {
	if c.pref == "" {
		return
	}
	upTo := c.ack
	for c.hasResult(upTo + 1) {
		upTo++
	}
	if upTo > c.ack {
		c.passed(upTo)
	}
	// The watermark stopped at ack+1, which has no result: the window
	// of results that overtook it starts at ack+2.
	poll := proto.Blank[proto.Poll]()
	poll.User, poll.Session, poll.Ack = c.cfg.User, c.cfg.Session, c.ack
	for seq := c.ack + 2; seq <= c.nextSeq; seq++ {
		if c.hasResult(seq) {
			poll.Have = append(poll.Have, seq)
		}
	}
	c.env.Send(c.pref, poll)
}

// AckSoon sends the next Poll once the message being handled is done
// with, not with the poll timer, provided the watermark then has a
// result to pass. It is for whoever is handed a result (Config.OnResult)
// that the coordinator should not keep for another poll period: until a
// Poll's Ack has passed a call, the coordinator holds its parameters
// and its output. Nobody calls it unasked — a client left alone polls on
// its timer only — and calling it twice before the Poll has left sends
// one. Event-loop only.
func (c *Client) AckSoon() {
	if c.ackSoon != nil {
		return
	}
	c.ackSoon = c.env.After(0, c.ackSoonFired)
}

func (c *Client) ackNow() {
	c.ackSoon = nil
	if !c.stopped && len(c.waiting) == 0 && c.hasResult(c.ack+1) {
		c.pollNow()
	}
}

func (c *Client) hasResult(seq proto.RPCSeq) bool {
	cl := c.calls[seq]
	return cl != nil && cl.resulted
}

// Receive implements node.Handler.
//
//rpcv:loop-only
func (c *Client) Receive(from proto.NodeID, msg proto.Message) {
	if c.stopped {
		return
	}
	switch m := msg.(type) {
	case *proto.SubmitAck:
		c.handleSubmitAck(from, m)
	case *proto.Results:
		c.handleResults(from, m)
	case *proto.SyncReply:
		c.handleSyncReply(from, m)
	default:
		c.env.Logf("client: unexpected %s from %s", msg.Kind(), from)
	}
}

// ForgetsMessages implements node.Forgetter: no handler keeps a message
// struct it received or sent, nor one of their lists. A delivered result
// is copied into its call, and a SyncReply's Known list is read, not
// kept. A call keeps its Submit by value (call.submit) for a resend, and
// every send of it is a pooled copy; a Poll's Have list is appended to
// the array its struct brought (proto.Blank).
func (*Client) ForgetsMessages() {}

func (c *Client) handleSubmitAck(from proto.NodeID, m *proto.SubmitAck) {
	c.monitor.Observe(from)
	if cl, ok := c.calls[m.Call.Seq]; ok {
		if !cl.acked {
			cl.acked = true
			c.acked++
		}
		c.maybeComplete(cl)
	}
}

func (c *Client) handleResults(from proto.NodeID, m *proto.Results) {
	c.monitor.Observe(from)
	if m.User != c.cfg.User || m.Session != c.cfg.Session {
		return
	}
	for i := range m.Results {
		res := &m.Results[i]
		cl, ok := c.calls[res.Call.Seq]
		if !ok {
			if res.Call.Seq <= c.ack {
				c.drop(res) // delivered, acknowledged and no longer tracked
				continue
			}
			// Result for a call from a lost log suffix (optimistic
			// logging crash): adopt it — the computation is not wasted.
			cl = &call{issued: c.env.Now(), completed: true}
			c.track(res.Call.Seq, cl)
		}
		if cl.resulted {
			c.drop(res) // duplicate delivery
			continue
		}
		c.deliver(cl, res)
	}
}

// drop gives back the large output of a result the client throws away —
// a call it has delivered already (node.Release): the delivered result
// is another entry's, in the message that delivered it.
func (c *Client) drop(res *proto.Result) {
	if len(res.Output) >= proto.BlobMin {
		node.Release(c.env, res.Output)
	}
}

// ---------------------------------------------------------------------
// Synchronization
// ---------------------------------------------------------------------

// sendSync opens the client/coordinator synchronization: exchange of
// maximum timestamps, then resend of whatever the coordinator lacks.
func (c *Client) sendSync() {
	if c.pref == "" {
		return
	}
	c.syncs++
	c.cm.syncs.Inc()
	c.syncSentAt = c.env.Now()
	c.env.Send(c.pref, proto.Pooled(proto.SyncRequest{
		User:    c.cfg.User,
		Session: c.cfg.Session,
		MaxSeq:  c.nextSeq,
		HaveLog: c.log.Len() > 0 || c.ack > 0,
	}))
}

// SyncNow triggers a synchronization round (experiment hook, fig. 6).
func (c *Client) SyncNow() { c.sendSync() }

// AfterSync runs fn once this incarnation has heard the coordinator's
// view of the session, at once if it already has. It is for the caller
// about to number a call in a session that may be older than the
// client's store shows — the caller chose the session ID, and the store
// may have gone with the machine. Until a SyncReply has set the
// watermark and the sequence counter, a new call could take the seq of
// one the coordinator has collected, and would never run. The request
// goes out now unless one is on its way, and again every poll period, so
// a lost one only delays fn. A session that cannot have a history (a
// fresh ID) numbers its calls without asking. Event-loop only.
func (c *Client) AfterSync(fn func()) {
	if c.synced {
		fn()
		return
	}
	c.waiting = append(c.waiting, fn)
	if c.syncSentAt.IsZero() {
		c.sendSync()
	}
}

func (c *Client) handleSyncReply(from proto.NodeID, m *proto.SyncReply) {
	c.monitor.Observe(from)
	if m.User != c.cfg.User || m.Session != c.cfg.Session {
		return
	}
	c.syncSentAt = time.Time{}
	// The session's collected watermark: an earlier incarnation held and
	// acknowledged every result at or below it, and the coordinator has
	// let them go. Ours is behind it only if we lost our store, or
	// crashed before the record of a watermark we had sent was durable.
	if m.Collected > c.ack {
		c.passed(m.Collected)
	}
	// Slow direction (coordinator logs only): adopt the coordinator's
	// view for the calls we lost. Retrieving this list is the
	// "additional overhead, before the actual logs exchange begins" of
	// figure 6; the result payloads then flow back through the bulk pull
	// below.
	for _, seq := range m.Known {
		if _, ok := c.calls[seq]; !ok && seq > c.ack {
			c.track(seq, &call{
				issued:  c.env.Now(),
				logDone: true, acked: true, completed: true,
			})
		}
	}
	// Resend every locally logged call the coordinator does not know —
	// including holes below its maximum timestamp (submissions lost on
	// the wire).
	for _, seq := range statesync.MissingSeqs(c.ack, c.nextSeq, m.Known) {
		c.resendSubmit(seq)
	}
	// Pull results we may have missed while away.
	c.pollNow()
	// The session now knows where it stands: number what waited for that.
	c.synced = true
	waiting := c.waiting
	c.waiting = nil
	for _, fn := range waiting {
		fn()
	}
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

// Stats is a snapshot of client counters.
type Stats struct {
	Submitted  int
	Completed  int // submission ops completed (strategy-dependent)
	Acked      int
	Results    int
	Failovers  int
	Syncs      int
	Preferred  proto.NodeID
	LoggedSeqs int
	Tracked    int          // calls held in memory: those above the watermark
	Collected  proto.RPCSeq // the result watermark: calls no longer tracked
}

// StatsNow returns current counters. Event-loop only.
func (c *Client) StatsNow() Stats {
	st := Stats{
		Submitted:  c.submitted,
		Completed:  c.completed,
		Failovers:  c.failovers,
		Syncs:      c.syncs,
		Preferred:  c.pref,
		LoggedSeqs: c.log.Len(),
		Acked:      c.acked,
		Results:    c.ResultCount(),
		Tracked:    len(c.calls),
		Collected:  c.ack,
	}
	return st
}

// ResultCount returns the number of distinct completed calls: those
// the watermark has passed plus the results held above it.
func (c *Client) ResultCount() int { return int(c.ack) + len(c.calls) - c.pending }

// Result returns the stored result for seq, if any: a result stays
// until the watermark passes its call.
func (c *Client) Result(seq proto.RPCSeq) (proto.Result, bool) {
	cl, ok := c.calls[seq]
	if !ok || !cl.resulted {
		return proto.Result{}, false
	}
	id := proto.CallID{User: c.cfg.User, Session: c.cfg.Session, Seq: seq}
	return proto.Result{Call: id, Output: cl.output, Err: cl.resultErr, Server: cl.server}, true
}

// Preferred returns the current preferred coordinator.
func (c *Client) Preferred() proto.NodeID { return c.pref }
