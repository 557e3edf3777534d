package coordinator

import (
	"encoding/binary"
	"slices"
	"strconv"
	"strings"
	"time"

	"rpcv/internal/fifo"
	"rpcv/internal/node"
	"rpcv/internal/proto"
)

// Collection (see the package comment): the per-session collected
// watermark, the one lookup that tells a collected call from one never
// seen, and the removal of what the watermark has passed — from the job
// table at once, from the disk behind the commits the coordinator pays
// for anyway.

// callStatus is what the coordinator knows of a call.
type callStatus int

const (
	// callUnknown: never seen here. A Submit for it is accepted, a
	// result for it is stored ("results are precious").
	callUnknown callStatus = iota
	// callLive: a record is in the job table.
	callLive
	// callCollected: at or below its session's watermark and gone. The
	// client held its result and said so; whatever a message says about
	// it now is answered as for a finished call and changes nothing.
	callCollected
)

// lookup is the one reading of "no record": every handler that used to
// take an absent record for a call never seen asks here instead.
func (c *Coordinator) lookup(call proto.CallID) (*proto.JobRecord, callStatus) {
	if rec, ok := c.store.Peek(call); ok {
		return rec, callLive
	}
	if call.Seq <= c.collected[sessionKey{call.User, call.Session}] {
		return nil, callCollected
	}
	return nil, callUnknown
}

// stale counts a message about a collected call, by message kind.
func (c *Coordinator) stale(msg proto.Message) {
	c.staleMsgs++
	c.cm.stale(msg.Kind()).Inc()
}

// dirtySet is what the replication stream to the ring successor — of
// job records or of session watermarks — has yet to tell its peer: the
// dirty keys, and those among them that the round awaiting its ack
// carried.
type dirtySet[K comparable] struct {
	set      map[K]bool
	inFlight []K
}

func newDirtySet[K comparable]() dirtySet[K] { return dirtySet[K]{set: make(map[K]bool)} }

// mark dirties k. If a round is in flight and carried k's previous
// state, the coming ack must not clear the new change: k leaves the
// in-flight snapshot, so it stays dirty and rides the next round
// (otherwise a record finishing mid-round would never replicate — a
// lost update).
func (d *dirtySet[K]) mark(k K, roundPending bool) {
	d.set[k] = true
	if !roundPending {
		return
	}
	for i, inflight := range d.inFlight {
		if inflight == k {
			d.inFlight[i] = d.inFlight[len(d.inFlight)-1]
			d.inFlight = d.inFlight[:len(d.inFlight)-1]
			return
		}
	}
}

// begin snapshots the dirty keys as the round now leaving carries them.
func (d *dirtySet[K]) begin() {
	d.inFlight = d.inFlight[:0]
	for k := range d.set {
		d.inFlight = append(d.inFlight, k)
	}
}

// acked cleans what the acknowledged round carried and returns it; the
// slice is valid until the next begin.
func (d *dirtySet[K]) acked() []K {
	for _, k := range d.inFlight {
		delete(d.set, k)
	}
	carried := d.inFlight
	d.inFlight = d.inFlight[:0]
	return carried
}

// markPrefix is where the watermarks live on the disk: one small key
// per session, coord/w/<user>/<session>, holding the watermark as a
// uvarint.
const markPrefix = "coord/w/"

func markKey(k sessionKey) string {
	return markPrefix + string(k.user) + "/" + strconv.FormatUint(uint64(k.session), 10)
}

// loadMarks reloads the sessions' watermarks.
func (c *Coordinator) loadMarks() {
	disk := c.env.Disk()
	for _, key := range disk.Keys(markPrefix) {
		name := key[len(markPrefix):]
		i := strings.LastIndexByte(name, '/')
		raw, _ := disk.Read(key)
		w, n := binary.Uvarint(raw)
		session, err := strconv.ParseUint(name[i+1:], 10, 64)
		if i < 0 || n <= 0 || err != nil {
			// The session's next Poll, or a replica's next round, says it
			// again; until then its collected calls read as never seen.
			c.env.Logf("coordinator: corrupt watermark %s", key)
			continue
		}
		k := sessionKey{proto.UserID(name[:i]), proto.SessionID(session)}
		c.collected[k] = proto.RPCSeq(w)
		c.gc.durable[k] = mark{w: proto.RPCSeq(w), key: key}
		// As loadStore does for the records: the successor may have
		// missed the round that said so while we were down, and a session
		// with nothing left in the table has no record to bring its
		// watermark along.
		c.tellMark(k)
	}
}

// tellMark owes a session's watermark to the ring successor, where
// there is one.
func (c *Coordinator) tellMark(k sessionKey) {
	if len(c.coords) > 1 {
		c.repl.marks.mark(k, c.repl.pending)
	}
}

// acknowledge raises a session's collected watermark to w — the Ack of
// a Poll, or what a peer says the session has acknowledged — and
// collects what it has passed. A watermark never goes back: a lower w
// (a stale Poll, a replica that heard less) only triggers the pass.
// tell says whether our own successor must hear of a raise, which
// mirrors what becomes of the jobs of the message that brought it.
func (c *Coordinator) acknowledge(k sessionKey, w proto.RPCSeq, tell bool) {
	if w > c.collected[k] {
		c.collected[k] = w
		c.gc.marks = append(c.gc.marks, k)
		if tell {
			c.tellMark(k)
		}
	}
	c.collect(k)
}

// collect removes from the job table every call of the session that is
// finished, at or below the watermark and known to our successor: a
// record that is still dirty waits for the ack of the round that
// carries it (collectAcked), so that no replica is left believing a
// collected call unfinished. An unfinished record at or below the
// watermark — the client got the result elsewhere, before a failover —
// stays until it finishes. The pass is uncharged and costs a binary
// search when there is nothing to do, so every Poll makes one.
func (c *Coordinator) collect(k sessionKey) {
	n := c.store.Collect(k.user, k.session, c.collected[k], func(rec *proto.JobRecord) bool {
		if rec.State != proto.TaskFinished {
			return false
		}
		if c.repl.jobs.set[rec.Call] {
			c.waiting[rec.Call] = true
			return false
		}
		delete(c.waiting, rec.Call)
		c.gc.jobs = append(c.gc.jobs, gone{rec: rec, key: c.store.Key(rec.Call, jobKey), give: true})
		return true
	})
	c.collectedJobs += n
	c.cm.collected.Add(uint64(n))
	c.cm.jobs.SetInt(c.store.Len())
	c.cm.sessions.SetInt(c.store.Sessions())
	c.cm.waiting.SetInt(len(c.waiting))
	c.sweep()
}

// collectAcked makes the pass for the sessions of the calls a
// replication round has just cleaned, if any of them was waiting.
func (c *Coordinator) collectAcked(carried []proto.CallID) {
	for _, call := range carried {
		if c.waiting[call] {
			// Off the waiting list first, so a session is swept once
			// however many of its calls the round carried.
			delete(c.waiting, call)
			c.collect(sessionKey{call.User, call.Session})
		}
	}
}

// garbage is what collection has decided and the disk has not heard:
// the sessions whose watermark key is behind, the calls gone from the
// job table whose keys are still there. Collection is never urgent, so
// it waits here for the next header persistJob stages — where the disk
// batches, that header's group commit then carries it for free — or, on
// an idle grid, for the flush timer. Nothing is lost with it in a
// crash: the records reload, and the session's next Poll collects them
// again. durable is each session's watermark as the disk is known to
// hold it, which is what allows a delete, and the key it is held under.
//
// What a flush stages completes as the gate's headers do: in staging
// order, through a callback bound once (written, deleted) over a queue
// of what it completes. And a flush keeps the arrays it swaps out, so
// collecting a call allocates nothing but the call's own writes.
//
// give is what a call leaves behind once its keys are gone from the
// disk: its large params and output, for the runtime to read later
// payloads into (giveBackIfQuiet).
type garbage struct {
	marks   []sessionKey
	jobs    []gone
	durable map[sessionKey]mark
	timer   node.Timer
	flushed time.Time // the last flush, by a header or by the timer
	give    [][]byte

	spareMarks []sessionKey
	spareJobs  []gone
	writing    fifo.Queue[markWrite]
	deleting   fifo.Queue[gone]
	written    func(error)
	deleted    func(error)
}

// mark is a session's watermark as the disk holds it, and its key there,
// made once per session.
type mark struct {
	w   proto.RPCSeq
	key string
}

// gone is a call gone from the job table: its record, and the key it
// has on the disk until its delete has gone through. give says that the
// record's payloads — the disk's blobs too, until then — go back to the
// runtime once it has. header is what the key held when its delete was
// staged, which goes back to proto's pool once the delete has gone
// through, whatever give says: the disk held it alone.
type gone struct {
	rec    *proto.JobRecord
	key    string
	give   bool
	header []byte
}

// markWrite is a watermark write staged: the session, and the watermark
// it makes durable.
type markWrite struct {
	k sessionKey
	w proto.RPCSeq
}

// newGarbage is an incarnation's empty garbage, its callbacks bound to c.
func newGarbage(c *Coordinator) garbage {
	return garbage{durable: make(map[sessionKey]mark), written: c.markWritten, deleted: c.jobDeleted}
}

// flushBeats is how long, in heartbeat periods, garbage waits for a
// header to ride before the timer takes it to the disk by itself. The
// timer measures idleness: while headers keep flushing it stands down,
// so a grid with traffic pays no commit for collection, and an idle
// grid's disk catches up within seconds.
const flushBeats = 10

// sweep sees that the garbage reaches the disk, with the next header or
// when the timer finds that none has come.
func (c *Coordinator) sweep() {
	if (len(c.gc.marks) == 0 && len(c.gc.jobs) == 0) || c.gc.timer != nil {
		return
	}
	wait := flushBeats * c.cfg.HeartbeatPeriod
	c.gc.timer = c.env.After(wait, func() {
		c.gc.timer = nil
		if c.env.Now().Sub(c.gc.flushed) < wait {
			c.sweep() // headers are flushing: look again in a while
		} else {
			c.flushGarbage()
		}
	})
}

// flushGarbage stages the watermarks that are behind and then the
// deletes of the calls whose session's watermark the disk holds: a
// deleted record implies a durable watermark at or above it, so a
// restart can never take a collected call for one never seen. Where a
// write completes at once that is every call; where it completes with
// its commit, a call collected since the last flush waits for the next
// one — a watermark whose write fails keeps its session's records on
// the disk until a retry has gone through.
func (c *Coordinator) flushGarbage() {
	marks, jobs := c.gc.marks, c.gc.jobs
	c.gc.marks, c.gc.jobs = c.gc.spareMarks, c.gc.spareJobs
	c.gc.flushed = c.env.Now()
	disk := c.env.Disk()
	for i, k := range marks {
		if slices.Contains(marks[:i], k) {
			continue // raised more than once since the last flush: one write says it
		}
		d, ok := c.gc.durable[k]
		if !ok {
			d.key = markKey(k)
			c.gc.durable[k] = d
		}
		w := c.collected[k]
		c.gc.writing.Push(markWrite{k, w})
		node.WriteAsync(disk, d.key, binary.AppendUvarint(nil, uint64(w)), c.gc.written)
	}
	for _, g := range jobs {
		if call := g.rec.Call; call.Seq <= c.gc.durable[sessionKey{call.User, call.Session}].w {
			c.deleteJob(g)
		} else {
			c.gc.jobs = append(c.gc.jobs, g)
		}
	}
	clear(marks)
	clear(jobs)
	c.gc.spareMarks, c.gc.spareJobs = marks[:0], jobs[:0]
	c.sweep()
}

// markWritten completes the oldest watermark write staged.
func (c *Coordinator) markWritten(err error) {
	m := c.gc.writing.Pop()
	if err != nil {
		c.persistFailed(proto.CallID{User: m.k.user, Session: m.k.session}, err)
		c.gc.marks = append(c.gc.marks, m.k)
	} else if d := c.gc.durable[m.k]; m.w > d.w {
		d.w = m.w
		c.gc.durable[m.k] = d
	}
	c.sweep()
}

// deleteJob removes a collected call's keys: its blobs and then its
// header, staged at once (msglog's Remove). A crash in between leaves a
// header, which reloads as a record the next pass collects again, or,
// short of a blob, is finished off by loadStore; never a blob that a
// header names. Whatever fails puts the call back with the garbage; the
// retry is as idempotent as the pass.
func (c *Coordinator) deleteJob(g gone) {
	g.header, _ = c.env.Disk().Read(g.key)
	c.gc.deleting.Push(g)
	if err := jobs.Remove(c.env, g.key, g.header, c.gc.deleted); err != nil {
		c.deleteFailed(c.gc.deleting.Unpush(), err)
	}
}

// jobDeleted completes the oldest delete staged. Its call is gone from
// the table and now from the disk: its header and its payloads are
// given back.
func (c *Coordinator) jobDeleted(err error) {
	g := c.gc.deleting.Pop()
	if err != nil {
		c.deleteFailed(g, err)
		return
	}
	proto.ReleasePayload(g.header)
	if g.give {
		c.giveBack(g.rec.Params)
		c.giveBack(g.rec.Output)
		c.giveBackIfQuiet()
	}
}

// deleteFailed puts g back with the garbage, its payloads left to the
// collector: a failed delete may leave one on the disk, which would then
// share an array the runtime reuses.
func (c *Coordinator) deleteFailed(g gone, err error) {
	c.env.Logf("coordinator: collect job %s: %v", g.rec.Call, err)
	g.give, g.header = false, nil // the retry reads what the disk holds then
	c.gc.jobs = append(c.gc.jobs, g)
	c.sweep()
}

// maxGiven bounds the payloads waiting to be given back: one that finds
// the list full is left to the collector, so that a reply pipeline that
// is never quiet costs reuse, not memory.
const maxGiven = 64

// giveBack queues a collected call's payload for the runtime, if it is
// one the wire decoder could have pooled.
func (c *Coordinator) giveBack(b []byte) {
	if len(b) >= proto.BlobMin && len(c.gc.give) < maxGiven {
		c.gc.give = append(c.gc.give, b)
	}
}

// giveBackIfQuiet hands the runtime — the env beneath the gate — the
// payloads of the collected calls (node.Release) once no reply decided
// before their collection can still be on its way to the runtime: none
// waits out its database cost (afterDBCost), and the commit gate holds
// none. A reply decided while a call was in the table may carry its
// params or output — a poll reply resends a result that was pushed —
// and one whose cost runs out after the call's delete was staged is
// held behind the headers staged since. What is already handed to the
// runtime, the runtime sees to.
func (c *Coordinator) giveBackIfQuiet() {
	if len(c.gc.give) == 0 || c.repliesOut > 0 || c.gate.held.Len() > 0 {
		return
	}
	for _, b := range c.gc.give {
		node.Release(c.gate.Env, b)
	}
	clear(c.gc.give)
	c.gc.give = c.gc.give[:0]
}

// drop gives back a payload that a message brought and the coordinator
// throws away, stored nowhere and sent nowhere: a duplicate's.
func (c *Coordinator) drop(b []byte) {
	if len(b) >= proto.BlobMin {
		node.Release(c.gate.Env, b)
	}
}

// Collected returns a session's collected watermark: every call of the
// session at or below it that finished here has been let go.
// Event-loop only.
func (c *Coordinator) Collected(user proto.UserID, session proto.SessionID) proto.RPCSeq {
	return c.collected[sessionKey{user, session}]
}
