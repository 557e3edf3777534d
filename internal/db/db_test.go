package db

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"rpcv/internal/proto"
)

func rec(user string, seq int, state proto.TaskState) *proto.JobRecord {
	return &proto.JobRecord{
		Call:  proto.CallID{User: proto.UserID(user), Session: 1, Seq: proto.RPCSeq(seq)},
		State: state,
	}
}

func TestPutGetDelete(t *testing.T) {
	d := New(ConfinedCost())
	r := rec("u", 1, proto.TaskPending)
	d.Put(r)
	got, ok := d.Get(r.Call)
	if !ok || got != r {
		t.Fatal("Get after Put failed")
	}
	d.Delete(r.Call)
	if _, ok := d.Get(r.Call); ok {
		t.Fatal("Get after Delete succeeded")
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d, want 0", d.Len())
	}
}

func TestPeekDoesNotCharge(t *testing.T) {
	d := New(ConfinedCost())
	d.Put(rec("u", 1, proto.TaskPending))
	d.DrainCost()
	ops := d.Ops()
	d.Peek(proto.CallID{User: "u", Session: 1, Seq: 1})
	d.PeekAll()
	if d.Ops() != ops {
		t.Fatal("Peek/PeekAll charged operations")
	}
	if d.DrainCost() != 0 {
		t.Fatal("Peek/PeekAll accumulated cost")
	}
}

func TestGetChargesWherePeekDoesNot(t *testing.T) {
	// The same lookup through the two doors: Get models a SQL
	// statement (one op, payload-scaled cost), Peek models internal
	// bookkeeping (free). The difference is what keeps measurement
	// from perturbing the virtual clock.
	cost := CostModel{PerOp: time.Millisecond, PerByte: time.Microsecond}
	d := New(cost)
	r := rec("u", 1, proto.TaskPending)
	r.Params = make([]byte, 100)
	d.Put(r)
	d.DrainCost()
	baseOps := d.Ops()

	if _, ok := d.Peek(r.Call); !ok {
		t.Fatal("Peek missed the record")
	}
	if d.Ops() != baseOps || d.DrainCost() != 0 {
		t.Fatal("Peek charged disk cost")
	}

	if _, ok := d.Get(r.Call); !ok {
		t.Fatal("Get missed the record")
	}
	if d.Ops() != baseOps+1 {
		t.Fatalf("Get charged %d ops, want exactly 1", d.Ops()-baseOps)
	}
	if want := cost.Cost(100); d.DrainCost() != want {
		t.Fatalf("Get cost drained != %v (payload-scaled)", want)
	}

	// A miss still charges the statement (the index was consulted).
	d.Get(proto.CallID{User: "ghost", Session: 1, Seq: 9})
	if d.Ops() != baseOps+2 {
		t.Fatal("missing-key Get did not charge")
	}
}

func TestLenAllConsistentAfterDelete(t *testing.T) {
	d := New(ConfinedCost())
	for i := 1; i <= 5; i++ {
		d.Put(rec("u", i, proto.TaskPending))
	}
	d.Delete(proto.CallID{User: "u", Session: 1, Seq: 2})
	d.Delete(proto.CallID{User: "u", Session: 1, Seq: 4})
	d.Delete(proto.CallID{User: "ghost", Session: 1, Seq: 1}) // absent: no-op

	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	all := d.All()
	if len(all) != d.Len() {
		t.Fatalf("All returned %d records, Len says %d", len(all), d.Len())
	}
	wantSeqs := []proto.RPCSeq{1, 3, 5}
	for i, r := range all {
		if r.Call.Seq != wantSeqs[i] {
			t.Fatalf("All[%d].Seq = %d, want %d (sorted, deleted keys gone)", i, r.Call.Seq, wantSeqs[i])
		}
	}
	// PeekAll agrees with All and stays free.
	ops := d.Ops()
	if got := d.PeekAll(); len(got) != len(all) {
		t.Fatalf("PeekAll %d records, All %d", len(got), len(all))
	}
	if d.Ops() != ops {
		t.Fatal("PeekAll charged")
	}
}

func TestCostAccumulatesAndDrains(t *testing.T) {
	cost := CostModel{PerOp: time.Millisecond, PerByte: 0}
	d := New(cost)
	for i := 0; i < 5; i++ {
		d.Put(rec("u", i+1, proto.TaskPending))
	}
	if got := d.DrainCost(); got != 5*time.Millisecond {
		t.Fatalf("drained %v, want 5ms", got)
	}
	if got := d.DrainCost(); got != 0 {
		t.Fatalf("second drain %v, want 0", got)
	}
}

func TestCostScalesWithPayload(t *testing.T) {
	cost := CostModel{PerOp: time.Millisecond, PerByte: time.Microsecond}
	d := New(cost)
	r := rec("u", 1, proto.TaskPending)
	r.Params = make([]byte, 1000)
	d.Put(r)
	if got := d.DrainCost(); got != time.Millisecond+1000*time.Microsecond {
		t.Fatalf("drained %v, want 2ms", got)
	}
}

func TestAllSortedByCallID(t *testing.T) {
	d := New(ConfinedCost())
	d.Put(rec("b", 2, proto.TaskPending))
	d.Put(rec("a", 9, proto.TaskPending))
	d.Put(rec("a", 1, proto.TaskPending))
	all := d.All()
	if len(all) != 3 {
		t.Fatalf("All returned %d records", len(all))
	}
	for i := 1; i < len(all); i++ {
		if !all[i-1].Call.Less(all[i].Call) {
			t.Fatalf("All not sorted: %v before %v", all[i-1].Call, all[i].Call)
		}
	}
}

func TestSelect(t *testing.T) {
	d := New(ConfinedCost())
	d.Put(rec("u", 1, proto.TaskPending))
	d.Put(rec("u", 2, proto.TaskFinished))
	d.Put(rec("u", 3, proto.TaskFinished))
	got := d.Select(func(r *proto.JobRecord) bool { return r.State == proto.TaskFinished })
	if len(got) != 2 {
		t.Fatalf("Select returned %d, want 2", len(got))
	}
}

func TestRealLifeFasterThanConfined(t *testing.T) {
	// The paper's real-life coordinators had faster databases.
	if RealLifeCost().Cost(300) >= ConfinedCost().Cost(300) {
		t.Fatal("real-life DB not faster than confined")
	}
}

func TestPutReplaces(t *testing.T) {
	d := New(ConfinedCost())
	r1 := rec("u", 1, proto.TaskPending)
	d.Put(r1)
	r2 := rec("u", 1, proto.TaskFinished)
	d.Put(r2)
	got, _ := d.Peek(r1.Call)
	if got.State != proto.TaskFinished || d.Len() != 1 {
		t.Fatal("Put did not replace in place")
	}
}

func TestOpsCountQuick(t *testing.T) {
	// Property: Ops equals the number of charged operations performed.
	f := func(puts, gets, deletes uint8) bool {
		d := New(CostModel{PerOp: time.Microsecond})
		for i := 0; i < int(puts); i++ {
			d.Put(rec("u", i, proto.TaskPending))
		}
		for i := 0; i < int(gets); i++ {
			d.Get(proto.CallID{User: "u", Session: 1, Seq: proto.RPCSeq(i)})
		}
		for i := 0; i < int(deletes); i++ {
			d.Delete(proto.CallID{User: "u", Session: 1, Seq: proto.RPCSeq(i)})
		}
		return d.Ops() == uint64(puts)+uint64(gets)+uint64(deletes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSessionIndexAgreesWithSelectQuick: after any sequence of Put,
// replacing Put and Delete across sessions and users, every read the
// session index serves — SessionSeqs, SessionAfter from any watermark,
// MaxSeq, Sessions — equals what a full-table Select computes.
func TestSessionIndexAgreesWithSelectQuick(t *testing.T) {
	type op struct {
		Delete  bool
		User    uint8 // mod 2
		Session uint8 // mod 3
		Seq     uint8 // mod 24: collisions make replaces and real deletes
	}
	id := func(o op) proto.CallID {
		return proto.CallID{
			User:    proto.UserID([]string{"a", "b"}[o.User%2]),
			Session: proto.SessionID(o.Session % 3),
			Seq:     proto.RPCSeq(o.Seq % 24),
		}
	}
	f := func(ops []op, after uint8) bool {
		d := New(CostModel{PerOp: time.Microsecond})
		for _, o := range ops {
			if o.Delete {
				d.Delete(id(o))
			} else {
				d.Put(&proto.JobRecord{Call: id(o), State: proto.TaskPending})
			}
		}
		sessions := 0
		for _, user := range []proto.UserID{"a", "b"} {
			for session := proto.SessionID(0); session < 3; session++ {
				want := d.Select(func(r *proto.JobRecord) bool {
					return r.Call.User == user && r.Call.Session == session
				})
				if len(want) > 0 {
					sessions++
				}
				var wantSeqs, wantAfter, gotAfter []proto.RPCSeq
				for _, r := range want {
					wantSeqs = append(wantSeqs, r.Call.Seq)
					if r.Call.Seq > proto.RPCSeq(after%26) {
						wantAfter = append(wantAfter, r.Call.Seq)
					}
				}
				for r := range d.SessionAfter(user, session, proto.RPCSeq(after%26)) {
					if got, _ := d.Peek(r.Call); got != r {
						return false // the iterator yields the stored record itself
					}
					gotAfter = append(gotAfter, r.Call.Seq)
				}
				var wantMax proto.RPCSeq
				if len(wantSeqs) > 0 {
					wantMax = wantSeqs[len(wantSeqs)-1]
				}
				if !slices.Equal(d.SessionSeqs(user, session), wantSeqs) ||
					!slices.Equal(gotAfter, wantAfter) ||
					d.MaxSeq(user, session) != wantMax {
					return false
				}
			}
		}
		return d.Sessions() == sessions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSessionReadsCharging(t *testing.T) {
	d := New(CostModel{PerOp: time.Millisecond})
	for i := 1; i <= 5; i++ {
		d.Put(rec("u", i, proto.TaskFinished))
	}
	d.DrainCost()
	ops := d.Ops()
	d.MaxSeq("u", 1)
	d.Sessions()
	if d.Ops() != ops {
		t.Fatal("MaxSeq/Sessions charged")
	}
	for range d.SessionAfter("u", 1, 2) {
	}
	d.SessionSeqs("u", 1)
	if d.Ops() != ops+2 || d.DrainCost() != 2*time.Millisecond {
		t.Fatalf("SessionAfter + SessionSeqs charged %d ops, want one each", d.Ops()-ops)
	}
	// The returned slice is the caller's: writing it leaves the index alone.
	seqs := d.SessionSeqs("u", 1)
	seqs[0] = 99
	if got := d.SessionSeqs("u", 1); got[0] != 1 {
		t.Fatalf("index aliased by SessionSeqs: %v", got)
	}
}

// Collect is the uncharged prefix delete behind the coordinator's
// garbage collection: it removes what the predicate selects among a
// session's records at or below a sequence number, keeps the index and
// the per-session maximum right for what stays, leaves other sessions
// alone and costs no modelled time.
func TestCollectRemovesASessionPrefixUncharged(t *testing.T) {
	d := New(CostModel{PerOp: time.Millisecond})
	for _, seq := range []proto.RPCSeq{1, 2, 3, 5, 8, 9} {
		d.Put(&proto.JobRecord{Call: proto.CallID{User: "u", Session: 1, Seq: seq}, State: proto.TaskState(seq % 3)})
		d.Put(&proto.JobRecord{Call: proto.CallID{User: "u", Session: 2, Seq: seq}})
	}
	d.DrainCost()
	ops := d.Ops()
	var visited []proto.RPCSeq
	n := d.Collect("u", 1, 6, func(rec *proto.JobRecord) bool {
		visited = append(visited, rec.Call.Seq)
		return rec.Call.Seq != 2 // 2 stays: unfinished, say
	})
	if n != 3 || !slices.Equal(visited, []proto.RPCSeq{1, 2, 3, 5}) {
		t.Fatalf("collected %d after visiting %v, want 3 of [1 2 3 5]", n, visited)
	}
	if d.Ops() != ops || d.DrainCost() != 0 {
		t.Fatalf("collection charged %d operations", d.Ops()-ops)
	}
	if got := d.SessionSeqs("u", 1); !slices.Equal(got, []proto.RPCSeq{2, 8, 9}) {
		t.Fatalf("session 1 holds %v, want [2 8 9]", got)
	}
	if got := d.SessionSeqs("u", 2); len(got) != 6 || d.Len() != 9 {
		t.Fatalf("session 2 holds %v, table %d records", got, d.Len())
	}
	var after []proto.RPCSeq
	for rec := range d.SessionAfter("u", 1, 2) {
		after = append(after, rec.Call.Seq)
	}
	if !slices.Equal(after, []proto.RPCSeq{8, 9}) || d.MaxSeq("u", 1) != 9 {
		t.Fatalf("after collection the index reads %v above 2, max %d", after, d.MaxSeq("u", 1))
	}
	// Everything goes: the session leaves the index.
	if n := d.Collect("u", 1, 100, func(*proto.JobRecord) bool { return true }); n != 3 || d.Sessions() != 1 || d.MaxSeq("u", 1) != 0 {
		t.Fatalf("collected %d, %d sessions left, max %d", n, d.Sessions(), d.MaxSeq("u", 1))
	}
	if n := d.Collect("nobody", 7, 100, func(*proto.JobRecord) bool { return true }); n != 0 {
		t.Fatalf("collected %d records of a session that has none", n)
	}
}
