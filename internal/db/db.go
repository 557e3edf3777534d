// Package db is the coordinator's task database: an in-memory stand-in
// for the MySQL instance XtremWeb uses to store job and task
// descriptions.
//
// The paper's figure 5 shows that coordinator replication time is
// bounded by database operation time at the backup side (tasks are
// replicated one after the other, each incurring a DB insert), and that
// the real-life coordinators — with better database performance — were
// faster than the confined ones. The substitution therefore preserves
// the behaviour that matters: each operation has a modelled cost, and
// the cost scales with record payload.
//
// The store itself is a deterministic ordered map keyed by CallID. A
// record here is the coordinator's working copy of a job and carries
// its payloads (Params, Output) whatever their size — scheduling and
// result polls read them from memory — which is also why every
// operation charges for them. The paper's split between "job
// descriptions in a database, for fast management, and file archives in
// an optimized file system" is drawn one layer down, where it costs
// something: the coordinator persists a record as a small header plus,
// for a payload of archive size, an immutable blob written once
// (coordinator.persistJob), and this table and the durable store then
// share the one slice per payload rather than holding a copy each.
//
// A secondary index, (user, session) → ascending sequence numbers,
// serves the per-session reads (result polls, synchronization, the
// per-session maximum timestamp) without scanning the table.
package db

import (
	"iter"
	"slices"
	"sort"
	"time"

	"rpcv/internal/proto"
)

// CostModel assigns a virtual latency to each database operation,
// parameterized by the record payload size.
type CostModel struct {
	// PerOp is the fixed cost of one statement (parse, index, commit).
	PerOp time.Duration
	// PerByte is the additional cost per payload byte.
	PerByte time.Duration
}

// Cost returns the latency of one operation on size bytes of payload.
func (c CostModel) Cost(size int) time.Duration {
	return c.PerOp + time.Duration(size)*c.PerByte
}

// ConfinedCost models the Athlon-XP-era MySQL on IDE disk of the
// confined platform: ~3 ms per statement. This constant is what makes
// replication of N small tasks linear in N with a visible slope
// (figure 5, right).
func ConfinedCost() CostModel {
	return CostModel{PerOp: 3 * time.Millisecond, PerByte: 20 * time.Nanosecond}
}

// RealLifeCost models the dedicated Xeon coordinators of the Internet
// testbed, whose database operations were measured faster than the
// confined platform's (paper §5.2).
func RealLifeCost() CostModel {
	return CostModel{PerOp: 1 * time.Millisecond, PerByte: 10 * time.Nanosecond}
}

// sessionKey names one client session: the prefix its CallIDs share.
type sessionKey struct {
	user    proto.UserID
	session proto.SessionID
}

// DB stores job records for one coordinator.
type DB struct {
	cost    CostModel
	records map[proto.CallID]row

	// sessions indexes records by session: the ascending sequence
	// numbers stored for each (user, session). Put, Delete and Collect
	// maintain it, so every writer — submissions, replication,
	// recovery, collection — feeds it. A session with no record has no
	// entry.
	sessions map[sessionKey][]proto.RPCSeq

	// spent accumulates the virtual time consumed by operations; the
	// coordinator drains it into timer delays so the event loop charges
	// the cost without blocking.
	spent time.Duration
	ops   uint64
}

// row is one record, and the key its owner stores it under on a disk,
// which the table keeps for it: built once per call (Key), and kept
// across every Put that replaces the record.
type row struct {
	rec *proto.JobRecord
	key string
}

// New creates an empty database with the given cost model.
func New(cost CostModel) *DB {
	return &DB{
		cost:     cost,
		records:  make(map[proto.CallID]row),
		sessions: make(map[sessionKey][]proto.RPCSeq),
	}
}

// Put inserts or replaces a record, charging one operation. A replaced
// record's key stays.
func (d *DB) Put(rec *proto.JobRecord) {
	d.charge(len(rec.Params) + len(rec.Output))
	if r, ok := d.records[rec.Call]; ok {
		r.rec = rec
		d.records[rec.Call] = r
		return // replaced: already indexed
	}
	d.records[rec.Call] = row{rec: rec}
	k := sessionKey{rec.Call.User, rec.Call.Session}
	seqs := d.sessions[k]
	// Sessions count upward, so the new seq almost always belongs at
	// the end; replication and resends may deliver out of order.
	i := len(seqs)
	if i > 0 && seqs[i-1] > rec.Call.Seq {
		i, _ = slices.BinarySearch(seqs, rec.Call.Seq)
	}
	d.sessions[k] = slices.Insert(seqs, i, rec.Call.Seq)
}

// Get returns the record for id, charging one operation.
func (d *DB) Get(id proto.CallID) (*proto.JobRecord, bool) {
	r, ok := d.records[id]
	if ok {
		d.charge(len(r.rec.Params) + len(r.rec.Output))
	} else {
		d.charge(0)
	}
	return r.rec, ok
}

// Peek returns the record without charging (internal bookkeeping reads
// that would not be SQL statements).
func (d *DB) Peek(id proto.CallID) (*proto.JobRecord, bool) {
	r, ok := d.records[id]
	return r.rec, ok
}

// Key returns the key kept with id's record, making it with build the
// first time it is asked for (uncharged: it is no statement). A call
// without a record gets build's key, kept nowhere.
func (d *DB) Key(id proto.CallID, build func(proto.CallID) string) string {
	r, ok := d.records[id]
	if r.key != "" {
		return r.key
	}
	r.key = build(id)
	if ok {
		d.records[id] = r
	}
	return r.key
}

// Delete removes a record, charging one operation.
func (d *DB) Delete(id proto.CallID) {
	d.charge(0)
	if _, ok := d.records[id]; !ok {
		return
	}
	delete(d.records, id)
	k := sessionKey{id.User, id.Session}
	seqs := d.sessions[k]
	if len(seqs) == 1 {
		delete(d.sessions, k)
		return
	}
	i, _ := slices.BinarySearch(seqs, id.Seq)
	d.sessions[k] = slices.Delete(seqs, i, i+1)
}

// Collect removes the records of a session with Seq <= upTo that drop
// selects, in ascending Seq order, and returns how many went. It
// charges nothing: garbage collection is no statement on the paper's
// call path, and a coordinator that collects must spend the same
// modelled time as one that does not. The session index is compacted
// once, however many records go.
func (d *DB) Collect(user proto.UserID, session proto.SessionID, upTo proto.RPCSeq, drop func(*proto.JobRecord) bool) int {
	k := sessionKey{user, session}
	seqs := d.sessions[k]
	end, found := slices.BinarySearch(seqs, upTo)
	if found {
		end++
	}
	id := proto.CallID{User: user, Session: session}
	kept := 0
	for _, seq := range seqs[:end] {
		id.Seq = seq
		if drop(d.records[id].rec) {
			delete(d.records, id)
			continue
		}
		seqs[kept] = seq
		kept++
	}
	if kept == end {
		return 0
	}
	if seqs = slices.Delete(seqs, kept, end); len(seqs) == 0 {
		delete(d.sessions, k)
	} else {
		d.sessions[k] = seqs
	}
	return end - kept
}

// Len returns the record count (free).
func (d *DB) Len() int { return len(d.records) }

// All returns the records sorted by CallID (deterministic iteration;
// charged as one scan operation).
func (d *DB) All() []*proto.JobRecord {
	d.charge(0)
	out := make([]*proto.JobRecord, 0, len(d.records))
	for _, r := range d.records {
		out = append(out, r.rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Call.Less(out[j].Call) })
	return out
}

// PeekAll returns all records sorted by CallID without charging any
// operation cost. It exists for introspection (tests, experiment
// observers): measurement must not perturb the virtual clock.
func (d *DB) PeekAll() []*proto.JobRecord {
	out := make([]*proto.JobRecord, 0, len(d.records))
	for _, r := range d.records {
		out = append(out, r.rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Call.Less(out[j].Call) })
	return out
}

// CountStates returns how many records are pending and how many
// ongoing, in one unsorted pass that allocates nothing and charges
// nothing: the coordinator's stats are read on its event loop, by
// every status scrape and after every simulated event of an
// experiment's stop condition.
func (d *DB) CountStates() (pending, ongoing int) {
	for _, r := range d.records {
		switch r.rec.State {
		case proto.TaskPending:
			pending++
		case proto.TaskOngoing:
			ongoing++
		}
	}
	return pending, ongoing
}

// Select returns records matching pred, sorted by CallID.
func (d *DB) Select(pred func(*proto.JobRecord) bool) []*proto.JobRecord {
	d.charge(0)
	var out []*proto.JobRecord
	for _, r := range d.records {
		if pred(r.rec) {
			out = append(out, r.rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Call.Less(out[j].Call) })
	return out
}

// SessionSeqs returns the sequence numbers stored for a session, in
// ascending order, charged as one index read. The slice is the
// caller's own.
func (d *DB) SessionSeqs(user proto.UserID, session proto.SessionID) []proto.RPCSeq {
	d.charge(0)
	return slices.Clone(d.sessions[sessionKey{user, session}])
}

// SessionAfter iterates over a session's records with Seq > after, in
// ascending Seq order. The whole iteration is charged as one operation
// (an indexed range query), however many records it visits. The
// database must not be written while the iteration runs.
func (d *DB) SessionAfter(user proto.UserID, session proto.SessionID, after proto.RPCSeq) iter.Seq[*proto.JobRecord] {
	return func(yield func(*proto.JobRecord) bool) {
		d.charge(0)
		seqs := d.sessions[sessionKey{user, session}]
		first, found := slices.BinarySearch(seqs, after)
		if found {
			first++
		}
		id := proto.CallID{User: user, Session: session}
		for _, seq := range seqs[first:] {
			id.Seq = seq
			if !yield(d.records[id].rec) {
				return
			}
		}
	}
}

// MaxSeq returns the highest sequence number stored for a session, zero
// if none (free: an indexed column in the real MySQL schema).
func (d *DB) MaxSeq(user proto.UserID, session proto.SessionID) proto.RPCSeq {
	seqs := d.sessions[sessionKey{user, session}]
	if len(seqs) == 0 {
		return 0
	}
	return seqs[len(seqs)-1]
}

// Sessions returns the number of sessions with at least one record
// (free).
func (d *DB) Sessions() int { return len(d.sessions) }

func (d *DB) charge(size int) {
	d.spent += d.cost.Cost(size)
	d.ops++
}

// DrainCost returns and resets the accumulated virtual latency of
// operations since the last drain. The owning node schedules this
// duration before acting on results, so database time appears on the
// virtual clock.
func (d *DB) DrainCost() time.Duration {
	s := d.spent
	d.spent = 0
	return s
}

// Ops returns the total number of charged operations.
func (d *DB) Ops() uint64 { return d.ops }
