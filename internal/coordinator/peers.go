package coordinator

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/proto"
	"rpcv/internal/statesync"
)

// round is the outgoing peer stream: at most one request in flight; one
// left unanswered for the suspicion timeout is given up. jobs and marks
// are the calls and session watermarks the peer has yet to hear of in
// their current state.
type round struct {
	pending bool
	n       uint64        // the latest request's number, which its answer echoes
	to      proto.NodeID  // where the latest request went
	start   time.Time     // when the latest request left
	took    time.Duration // how long the last answered round took (figure 5)
	done    uint64        // rounds answered
	timer   node.Timer    // the next periodic round, when there is a period
	jobs    dirtySet[proto.CallID]
	marks   dirtySet[sessionKey]
}

// restart forgets, at a coordinator's start, the round in flight and
// what the peer was owed: loadStore and loadMarks owe it again what the
// disk holds. The counters go on.
func (r *round) restart() {
	r.pending = false
	r.jobs, r.marks = newDirtySet[proto.CallID](), newDirtySet[sessionKey]()
}

// begin opens the next round, to peer, carrying everything dirty now,
// and returns its number.
func (r *round) begin(peer proto.NodeID, now time.Time) uint64 {
	r.jobs.begin()
	r.marks.begin()
	r.n++
	r.pending, r.to, r.start = true, peer, now
	return r.n
}

// giveUpAfter abandons the round just begun if it is still unanswered
// after d. A later round has its own timer: this one leaves it alone.
func (r *round) giveUpAfter(env node.Env, d time.Duration) {
	n := r.n
	env.After(d, func() {
		if r.pending && r.n == n {
			r.pending = false
		}
	})
}

// every calls fn once a period; never when period is not positive.
func (r *round) every(env node.Env, period time.Duration, fn func()) {
	if period <= 0 {
		return
	}
	r.timer = env.After(period, func() {
		fn()
		r.every(env, period, fn)
	})
}

// settle closes r's round if an answer echoing epoch and n answers it —
// the round is pending, and they are this incarnation's epoch and the
// round's number — and reports whether it did. The peer now holds
// exactly what the round carried; what was dirtied since stays dirty,
// and a finished call that waited for this below its session's
// watermark can go.
func (c *Coordinator) settle(r *round, epoch, n uint64) bool {
	if !r.pending || epoch != c.epoch || n != r.n {
		return false
	}
	r.pending = false
	r.done++
	r.took = c.env.Now().Sub(r.start)
	r.marks.acked()
	c.collectAcked(r.jobs.acked())
	return true
}

// roundJobs is a round's job list: every record r owes its peer, in call
// order, sharing its payloads (nothing modifies their bytes) but without
// params over ReplicateParamsLimit — file archives are not replicated.
func (c *Coordinator) roundJobs(r *round) []proto.JobRecord {
	var jobs []proto.JobRecord
	for _, call := range sortedCalls(r.jobs.set) {
		rec, ok := c.store.Peek(call)
		if !ok {
			continue
		}
		job := *rec
		if len(job.Params) > c.cfg.ReplicateParamsLimit {
			job.Params = nil
		}
		jobs = append(jobs, job)
	}
	return jobs
}

// markDirty notes that call's record changed, for the ring successor if
// this coordinator knows of any other coordinator (in a ring of one
// nothing is dirty — there is no round to clean it).
func (c *Coordinator) markDirty(call proto.CallID) {
	if len(c.coords) > 1 {
		c.repl.jobs.mark(call, c.repl.pending)
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
			c.repl.jobs.mark(rec.Call, c.repl.pending)
		}
		for k := range c.collected {
			c.repl.marks.mark(k, c.repl.pending)
		}
	}
}

// apply merges one record the ring predecessor sent by the rule of the
// package comment. A replica tells no one the jobs of an update.
func (c *Coordinator) apply(m proto.Message, in *proto.JobRecord) {
	local, status := c.lookup(in.Call)
	if status == callCollected {
		c.stale(m)
		return
	}
	if local != nil && local.State == proto.TaskFinished {
		return // finished tasks are never regressed
	}
	// A record of our own: the message keeps its records, and the
	// payloads, whose bytes nobody modifies, are shared, not copied.
	cp := *in
	rec := &cp
	if rec.State == proto.TaskFinished {
		c.finish(rec, false)
		return
	}
	if local != nil && local.Params != nil && rec.Params == nil {
		rec.Params = local.Params // sent without its archive: keep ours
	}
	// Held for the predecessor, an ongoing call is kept without being
	// scheduled until the predecessor is suspected (release).
	held := rec.State == proto.TaskOngoing
	if held {
		c.fromPredecessor[rec.Call] = true
	} else {
		rec.State = proto.TaskPending
	}
	c.put(rec)
	c.persistJob(rec)
	// The predecessor's pending copy of a call ongoing here queues nothing.
	if !held && (local == nil || local.State != proto.TaskOngoing) {
		c.enqueue(rec.Call)
	}
}

// release requeues, in call order, each call held for the predecessor,
// and reports how many are schedulable again.
func (c *Coordinator) release() int {
	released := 0
	for _, call := range sortedCalls(c.fromPredecessor) {
		delete(c.fromPredecessor, call)
		if c.requeue(call, requeueCoordinatorSuspected) {
			released++
		}
	}
	return released
}

// ---------------------------------------------------------------------
// Passive replication (virtual ring)
// ---------------------------------------------------------------------

// ReplicateNow starts one replication round to the current ring
// successor, if any and if no round is in flight. Exported so
// experiment drivers can measure single rounds (figure 5).
func (c *Coordinator) ReplicateNow() {
	if c.repl.pending || c.stopped {
		return
	}
	succ := c.Successor()
	if succ == "" {
		return
	}
	// Nothing dirty: the (tiny) update goes anyway — it doubles as the
	// ring heartbeat that keeps successors from suspecting us.
	update := &proto.ReplicaUpdate{From: c.env.Self(), Epoch: c.epoch, Jobs: c.roundJobs(&c.repl)}
	update.MaxSeqs = c.sessionMaxes(update.Jobs)
	update.Round = c.repl.begin(succ, c.env.Now())
	c.afterDBCost(reply{to: succ, msg: update})
	// Given up, the round stays on the successor: the ring monitor
	// decides when it is another.
	c.repl.giveUpAfter(c.env, c.cfg.HeartbeatTimeout)
}

// sessionMaxes is a ReplicaUpdate's session list: one entry per session
// the round says something about — a job it carries or a watermark the
// successor has yet to hear — each with the session's watermark, which
// is how the successor learns what it may delete too. The entries are
// sorted by "user/session".
func (c *Coordinator) sessionMaxes(jobs []proto.JobRecord) []proto.SessionMax {
	byLabel := make(map[string]proto.SessionMax)
	note := func(k sessionKey, seq proto.RPCSeq) {
		label := fmt.Sprintf("%s/%d", k.user, k.session)
		sm := byLabel[label]
		sm.User, sm.Session, sm.Collected = k.user, k.session, c.collected[k]
		sm.MaxSeq = max(sm.MaxSeq, seq)
		byLabel[label] = sm
	}
	for i := range jobs {
		call := jobs[i].Call
		note(sessionKey{call.User, call.Session}, call.Seq)
	}
	for k := range c.repl.marks.set {
		note(k, c.collected[k])
	}
	var out []proto.SessionMax
	for _, label := range slices.Sorted(maps.Keys(byLabel)) {
		out = append(out, byLabel[label])
	}
	return out
}

func (c *Coordinator) handleReplicaUpdate(from proto.NodeID, m *proto.ReplicaUpdate) {
	c.heard(from, []proto.NodeID{from})
	c.predecessor = from
	for i := range m.Jobs {
		c.apply(m, &m.Jobs[i])
	}
	// The watermarks after the jobs: a finish this round carries is
	// stored (and counted) before the watermark that lets it go. What a
	// replica learns this way it tells no one — it does not replicate
	// the jobs of an update either.
	for _, sm := range m.MaxSeqs {
		c.acknowledge(sessionKey{sm.User, sm.Session}, sm.Collected, false)
	}
	c.afterDBCost(reply{to: from, msg: &proto.ReplicaAck{From: c.env.Self(), Epoch: m.Epoch, Round: m.Round}})
}

func (c *Coordinator) handleReplicaAck(from proto.NodeID, m *proto.ReplicaAck) {
	c.ring.Observe(from)
	if from == c.repl.to {
		c.settle(&c.repl, m.Epoch, m.Round)
	}
}

// onCoordinatorSuspected recomputes the topology to stay in the same
// connected component: drop the suspect from the ring view and, if its
// tasks were held back as "ongoing at predecessor", release them.
func (c *Coordinator) onCoordinatorSuspected(id proto.NodeID) {
	c.env.Logf("coordinator: suspect coordinator %s", id)
	if c.repl.pending && id == c.repl.to {
		c.repl.pending = false // the round is lost; next tick re-routes
	}
	if id == c.predecessor {
		released := c.release()
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
