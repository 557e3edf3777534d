package coordinator

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"rpcv/internal/db"
	"rpcv/internal/node/nodetest"
	"rpcv/internal/proto"
)

// releasingEnv is a hand-driven Env with node.Releaser added: it
// records what the coordinator gives back.
type releasingEnv struct {
	*nodetest.Env
	released [][]byte
	events   []string // what left and what went back, in order
}

func (e *releasingEnv) Release(b []byte) {
	e.released = append(e.released, b)
	e.events = append(e.events, "release")
}

func (e *releasingEnv) Send(to proto.NodeID, m proto.Message) {
	e.events = append(e.events, m.Kind())
	e.Env.Send(to, m)
}

// times is how often b's array was given back.
func (e *releasingEnv) times(b []byte) int {
	n := 0
	for _, r := range e.released {
		if &r[:1][0] == &b[:1][0] {
			n++
		}
	}
	return n
}

// releaseRig is a coordinator over a group-commit disk whose batches
// commit and complete only when the test settles them, with a database
// cost per statement, so that a reply waits in a timer until the clock
// moves.
type releaseRig struct {
	t    *testing.T
	disk *nodetest.CrashDisk
	env  *releasingEnv
	co   *Coordinator
}

const releasePeriod = 100 * time.Millisecond

func newReleaseRig(t *testing.T, cost time.Duration) *releaseRig {
	r := &releaseRig{t: t, disk: nodetest.NewCrashDisk(t, "batch")}
	r.env = &releasingEnv{Env: nodetest.NewEnv("co", r.disk.Disk)}
	r.co = New(Config{Coordinators: []proto.NodeID{"co"}, DBCost: db.CostModel{PerOp: cost},
		HeartbeatPeriod: releasePeriod, HeartbeatTimeout: 24 * time.Hour})
	r.co.Start(r.env)
	return r
}

// turns lets n rounds of commits, completions and database-cost timers
// run.
func (r *releaseRig) turns(n int) {
	for range n {
		r.disk.Settle()
		r.env.Advance(10 * time.Millisecond)
	}
}

// deliver hands msg to the coordinator and runs a few turns.
func (r *releaseRig) deliver(from proto.NodeID, msg proto.Message) []proto.Message {
	r.co.Receive(from, msg)
	r.turns(3)
	return r.env.Take()
}

// finishOne submits calls 1 and 2 of session u/1 with 64 KiB params,
// runs call 1 to a 64 KiB result the session fetches, and returns call
// 1's params and output and call 2's params.
func (r *releaseRig) finishOne() (p1, o1, p2 []byte) {
	r.t.Helper()
	p1, o1, p2 = bytes.Repeat([]byte{1}, 64<<10), bytes.Repeat([]byte{2}, 64<<10), bytes.Repeat([]byte{3}, 64<<10)
	r.deliver("cl", &proto.Submit{Call: call(1), Service: "echo", Params: p1})
	r.deliver("cl", &proto.Submit{Call: call(2), Service: "echo", Params: p2})
	var task *proto.TaskAssignment
	for _, m := range r.deliver("sv0", &proto.Heartbeat{From: "sv0", Role: proto.RoleServer, Capacity: 1, WantWork: true}) {
		if ack, ok := m.(*proto.HeartbeatAck); ok && len(ack.Tasks) == 1 {
			task = &ack.Tasks[0]
		}
	}
	if task == nil || task.Task.Call != call(1) {
		r.t.Fatal("call 1 was not assigned")
	}
	r.deliver("sv0", &proto.TaskResult{From: "sv0", Task: task.Task, Output: o1})
	r.deliver("cl", &proto.Poll{User: "u", Session: 1})
	if len(r.env.released) != 0 {
		r.t.Fatalf("%d payloads given back before any call was collected", len(r.env.released))
	}
	return p1, o1, p2
}

// collectUntilStaged acknowledges call 1 and moves the clock and the
// disk a step at a time until the garbage flush has staged its deletes —
// call 1's blobs are gone from the disk's view — and no further. Neither
// of its payloads may go back on the way.
func (r *releaseRig) collectUntilStaged(p1, o1 []byte) {
	r.t.Helper()
	r.co.Receive("cl", &proto.Poll{User: "u", Session: 1, Ack: 1})
	steps := []func(){
		func() { r.env.Advance(flushBeats * releasePeriod) }, // the flush timer
		r.disk.Settle, // completions, then what was staged is handed to the log
	}
	for i := range 20 {
		if r.env.times(p1)+r.env.times(o1) != 0 {
			r.t.Fatal("a payload was given back before its delete was staged")
		}
		if len(r.disk.Disk.Keys("coord/blob/u/1/1/")) == 0 {
			return
		}
		steps[i%len(steps)]()
	}
	r.t.Fatal("the collected call's deletes were never staged")
}

// A collected call's params and output go back to the runtime once
// each: only after the deletes of its blobs and header have completed,
// and only once no reply is waiting out its database cost — a reply
// decided earlier may carry either. A live call's params never go.
func TestCollectedCallGivesItsPayloadsBackOnce(t *testing.T) {
	r := newReleaseRig(t, time.Millisecond)
	p1, o1, p2 := r.finishOne()
	r.collectUntilStaged(p1, o1)
	if len(r.env.released) != 0 {
		t.Fatal("payloads given back while their deletes were only staged")
	}
	r.disk.Settle() // the deletes commit; their completions wait for the next turn
	if len(r.env.released) != 0 {
		t.Fatal("payloads given back before their deletes completed")
	}
	// A reply now waits out its database cost while the deletes complete.
	r.co.Receive("cl", &proto.Poll{User: "u", Session: 1, Ack: 1})
	r.disk.Settle()
	if len(r.env.released) != 0 {
		t.Fatal("payloads given back while a reply was waiting out its database cost")
	}
	r.env.Advance(10 * time.Millisecond)
	if r.env.times(p1) != 1 || r.env.times(o1) != 1 || len(r.env.released) != 2 {
		t.Fatalf("given back: params %d times, output %d times, %d in all; want each once", r.env.times(p1), r.env.times(o1), len(r.env.released))
	}
	r.deliver("cl", &proto.Poll{User: "u", Session: 1, Ack: 1})
	r.env.Advance(10 * flushBeats * releasePeriod)
	r.turns(5)
	if len(r.env.released) != 2 || r.env.times(p2) != 0 {
		t.Fatalf("%d payloads given back in all, call 2's params %d times; want the two, and never a live call's", len(r.env.released), r.env.times(p2))
	}
}

// A reply decided while call 1 was in the table and handed to the gate
// only once its deletes were staged — a poll reply whose database cost
// ran out late — is held behind the header staged since: the payloads
// wait for it to leave, though the deletes complete first. The
// coordinator is driven by hand: the test is its loop.
//
//rpcv:loop-only
func TestPayloadsWaitForTheRepliesTheGateHolds(t *testing.T) {
	r := newReleaseRig(t, 0)
	p1, o1, _ := r.finishOne()
	r.collectUntilStaged(p1, o1)
	r.co.Receive("cl", &proto.Submit{Call: call(3), Service: "echo", Params: []byte("p")}) // a header behind the deletes
	r.co.env.Send("cl", &proto.Results{User: "u", Session: 1, Results: []proto.Result{{Call: call(1), Output: o1}}})
	if r.co.gate.held.Len() != 2 {
		t.Fatalf("the gate holds %d replies, want the SubmitAck and the Results", r.co.gate.held.Len())
	}
	r.env.events = nil
	r.disk.Settle() // the deletes and the header commit
	r.disk.Settle() // and complete, in that order
	want := []string{"submit-ack", "results", "release", "release"}
	if !slices.Equal(r.env.events, want) {
		t.Fatalf("events %v, want %v: a payload went back while a reply that may carry it was held", r.env.events, want)
	}
}

// A delete that fails gives nothing back — the disk may still hold the
// blob — and neither does the retry that then goes through.
func TestFailedDeleteGivesNothingBack(t *testing.T) {
	r := newReleaseRig(t, time.Millisecond)
	p1, o1, _ := r.finishOne()
	r.collectUntilStaged(p1, o1)
	r.disk.Plan.FailCommits(1)
	r.disk.Settle() // the deletes fail
	r.disk.Settle() // and complete so
	r.disk.Plan.Heal()
	for range 5 {
		r.env.Advance(flushBeats * releasePeriod)
		r.turns(2)
	}
	if keys := r.disk.Disk.Keys("coord/blob/u/1/1/"); len(keys) != 0 {
		t.Fatalf("the retry left blobs on the disk: %v", keys)
	}
	r.deliver("cl", &proto.Poll{User: "u", Session: 1, Ack: 1}) // a reply leaves: the pipeline is quiet
	if len(r.env.released) != 0 {
		t.Fatalf("%d payloads given back after a failed delete", len(r.env.released))
	}
}

// What the coordinator throws away on arrival goes back at once: the
// params of a duplicate Submit, of a live call and of a collected one,
// and the output of a duplicate TaskResult. A payload under BlobMin is
// never handed on.
func TestDuplicatePayloadsGoBackOnArrival(t *testing.T) {
	r := newReleaseRig(t, time.Millisecond)
	p1, o1, _ := r.finishOne()
	live := make([]byte, 64<<10)
	r.co.Receive("cl", &proto.Submit{Call: call(2), Service: "echo", Params: live})
	if r.env.times(live) != 1 {
		t.Fatal("a live call's duplicate Submit kept its params")
	}
	output := make([]byte, 64<<10)
	r.co.Receive("sv0", &proto.TaskResult{From: "sv0", Task: proto.TaskID{Call: call(1), Instance: 1}, Output: output})
	if r.env.times(output) != 1 {
		t.Fatal("a finished call's duplicate TaskResult kept its output")
	}
	r.collectUntilStaged(p1, o1)
	r.turns(4)
	collected := make([]byte, 64<<10)
	r.co.Receive("cl", &proto.Submit{Call: call(1), Service: "echo", Params: collected})
	if r.env.times(collected) != 1 {
		t.Fatal("a collected call's duplicate Submit kept its params")
	}
	small := []byte("small")
	r.co.Receive("cl", &proto.Submit{Call: call(1), Service: "echo", Params: small})
	if r.env.times(small) != 0 {
		t.Fatal("a payload under BlobMin was handed on")
	}
}
