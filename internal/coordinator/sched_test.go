package coordinator

import (
	"slices"
	"testing"
	"time"

	"rpcv/internal/db"
	"rpcv/internal/proto"
	"rpcv/internal/sim"
)

// rig2 builds a world with one coordinator and two scripted server
// stand-ins, for scheduling tests that need distinct workers.
func rig2(t *testing.T, cfg Config) (*sim.World, *Coordinator, *peer, *peer) {
	t.Helper()
	if cfg.DBCost == (db.CostModel{}) {
		cfg.DBCost = db.CostModel{PerOp: time.Microsecond}
	}
	cfg.Coordinators = []proto.NodeID{"co"}
	w := sim.NewWorld(sim.Config{Seed: 7})
	co := New(cfg)
	a, b := &peer{}, &peer{}
	w.AddNode("co", co)
	w.AddNode("sva", a)
	w.AddNode("svb", b)
	w.Start("co")
	w.Start("sva")
	w.Start("svb")
	return w, co, a, b
}

func beat(p *peer, capacity int) {
	p.env.Send("co", &proto.Heartbeat{From: p.env.Self(), Role: proto.RoleServer,
		Capacity: capacity, WantWork: true})
}

func lastAck(t *testing.T, p *peer) *proto.HeartbeatAck {
	t.Helper()
	ack, ok := p.last().(*proto.HeartbeatAck)
	if !ok {
		t.Fatalf("last = %T, want HeartbeatAck", p.last())
	}
	return ack
}

// TestUnknownPolicyFallsBackToFCFS: a policy name other than fcfs —
// here one a retired policy had — is logged and the queue is served
// first-come-first-served: the execution times carried by the submits
// do not reorder it.
func TestUnknownPolicyFallsBackToFCFS(t *testing.T) {
	w, _, a, _ := rig2(t, Config{Policy: "deadline", MaxTasksPerAck: 10})
	for seq, exec := range []time.Duration{time.Minute, 10 * time.Second, 0, 30 * time.Second} {
		m := submit(seq + 1)
		m.ExecTime = exec
		a.env.Send("co", m)
	}
	w.RunFor(time.Second)
	beat(a, 10)
	w.RunFor(time.Second)
	ack := lastAck(t, a)
	var got []proto.RPCSeq
	for _, task := range ack.Tasks {
		got = append(got, task.Task.Call.Seq)
	}
	if want := []proto.RPCSeq{1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("assignment order %v, want arrival order %v", got, want)
	}
}

// TestRequeueRaceLoserIsCancelled: a call requeued after its server's
// suspicion runs twice. The suspect was only slow: its late result
// finishes the call, the server running the second instance is sent a
// TaskCancel for it, and that instance's result, should it come anyway,
// counts as a duplicate.
func TestRequeueRaceLoserIsCancelled(t *testing.T) {
	w, co, a, b := rig2(t, Config{HeartbeatTimeout: 20 * time.Second})
	a.env.Send("co", submit(1))
	w.RunFor(time.Second)
	beat(a, 1)
	w.RunFor(time.Second)
	first := lastAck(t, a)
	if len(first.Tasks) != 1 || first.Tasks[0].Task.Instance != 1 {
		t.Fatalf("first assignment = %+v", first.Tasks)
	}

	// sva goes silent past the timeout while svb keeps beating: sva is
	// suspected and the call is queued again.
	for i := 0; i < 6; i++ {
		beat(b, 0)
		w.RunFor(5 * time.Second)
	}
	if st := co.StatsNow(); st.Rescheduled != 1 || st.Pending != 1 {
		t.Fatalf("after suspicion: %+v", st)
	}
	beat(b, 1)
	w.RunFor(time.Second)
	second := lastAck(t, b)
	if len(second.Tasks) != 1 || second.Tasks[0].Task.Instance != 2 {
		t.Fatalf("second assignment = %+v", second.Tasks)
	}

	// sva was only slow: its result finishes the call, and svb is told
	// to drop instance 2.
	a.env.Send("co", &proto.TaskResult{From: "sva", Task: first.Tasks[0].Task, Output: []byte("first")})
	w.RunFor(time.Second)
	if st := co.StatsNow(); st.Finished != 1 || st.Ongoing != 0 {
		t.Fatalf("after the late result: %+v", st)
	}
	var cancels []proto.TaskID
	for _, m := range b.inbox {
		if c, ok := m.(*proto.TaskCancel); ok {
			cancels = append(cancels, c.Task)
		}
	}
	if len(cancels) != 1 || cancels[0] != second.Tasks[0].Task {
		t.Fatalf("svb was sent cancels %v, want one for %v", cancels, second.Tasks[0].Task)
	}
	for _, m := range a.inbox {
		if _, ok := m.(*proto.TaskCancel); ok {
			t.Fatal("the winner was sent a TaskCancel")
		}
	}

	// svb's result comes anyway: a duplicate, and the stored one stays.
	b.env.Send("co", &proto.TaskResult{From: "svb", Task: second.Tasks[0].Task, Output: []byte("second")})
	w.RunFor(time.Second)
	if st := co.StatsNow(); st.Finished != 1 || st.DupResults != 1 {
		t.Fatalf("the loser's result was not deduplicated: %+v", st)
	}
	if rec, _ := co.DB().Peek(call(1)); string(rec.Output) != "first" {
		t.Fatalf("stored output = %q, want the winner's", rec.Output)
	}
}
