package coordinator

import (
	"fmt"
	"testing"
	"time"

	"rpcv/internal/db"
	"rpcv/internal/proto"
	"rpcv/internal/sim"
)

// The merge of a record a peer sent, characterised: every state the call
// can be in here, against every state the record can carry in a
// ReplicaUpdate from the ring predecessor.

// mergeCell is one coordinator under test with the nodes that give a
// call its local state and send it the record: a peer coordinator, a
// server and a client.
type mergeCell struct {
	w               *sim.World
	co              *Coordinator
	pc, sv, cl      *peer
	x               proto.CallID
	finished, stale int
}

const mergeTimeout = 10 * time.Second

// newMergeCell boots a ring of two, the peer its other member.
func newMergeCell(t *testing.T) *mergeCell {
	t.Helper()
	cfg := Config{
		Coordinators:     []proto.NodeID{"co", "pc"},
		DBCost:           db.CostModel{PerOp: time.Microsecond},
		HeartbeatTimeout: mergeTimeout,
		PullOnly:         true, // what is queued stays queued until a pull
	}
	c := &mergeCell{w: sim.NewWorld(sim.Config{Seed: 3}), co: New(cfg), pc: &peer{}, sv: &peer{}, cl: &peer{}}
	c.x = proto.CallID{User: "u0", Session: 1, Seq: 1}
	c.w.AddNode("co", c.co)
	c.w.AddNode("pc", c.pc)
	c.w.AddNode("sv", c.sv)
	c.w.AddNode("cl", c.cl)
	for _, id := range []proto.NodeID{"co", "pc", "sv", "cl"} {
		c.w.Start(id)
	}
	// An idle server's pull on an empty queue: the server is known before
	// the call is.
	c.pull()
	return c
}

func (c *mergeCell) pull() {
	c.sv.env.Send("co", &proto.Heartbeat{From: "sv", Role: proto.RoleServer, Capacity: 1, WantWork: true})
	c.w.RunFor(time.Second)
}

// give puts the call in local state, through the messages that do.
func (c *mergeCell) give(local string) {
	switch local {
	case "unknown":
	case "collected": // the session says it holds the result
		c.cl.env.Send("co", &proto.Poll{User: c.x.User, Session: c.x.Session, Ack: c.x.Seq})
	default:
		c.cl.env.Send("co", &proto.Submit{Call: c.x, Service: "synthetic", Params: []byte("p"),
			ExecTime: time.Second, ResultSize: 4})
		c.w.RunFor(time.Second)
		switch local {
		case "ongoing":
			c.pull()
		case "finished":
			c.sv.env.Send("co", &proto.TaskResult{From: "sv", Task: proto.TaskID{Call: c.x, Instance: 1}, Output: []byte("r")})
		}
	}
	c.w.RunFor(time.Second)
	c.finished, c.stale = c.co.FinishedCount(), c.co.StatsNow().Stale
}

// send has the peer send one record of the call in state in.
func (c *mergeCell) send(in proto.TaskState) {
	rec := proto.JobRecord{Call: c.x, Service: "synthetic", Params: []byte("q"),
		ExecTime: time.Second, ResultSize: 4, State: in, Instance: 5}
	if in == proto.TaskFinished {
		rec.Output, rec.Server = []byte("o"), "far"
	}
	c.pc.env.Send("co", &proto.ReplicaUpdate{From: "pc", Epoch: 1, Round: 1, Jobs: []proto.JobRecord{rec}})
	c.w.RunFor(time.Second)
}

// outcome is what the merge left: the stored state and instance (5 is
// the peer's record, anything else the coordinator's own), whether the
// call is queued and whom it is held for, and what the finished and
// stale counters gained. The simulator runs every handler on the test's
// goroutine: between two RunFor calls, the test is the loop.
//
//rpcv:loop-only
func (c *mergeCell) outcome() string {
	out := "absent"
	if rec, ok := c.co.DB().Peek(c.x); ok {
		out = fmt.Sprintf("%s#%d", rec.State, rec.Instance)
	}
	if c.co.eng.Queued(c.x) {
		out += " queued"
	}
	if _, ok := c.co.fromPredecessor[c.x]; ok {
		out += " held:predecessor"
	}
	if d := c.co.FinishedCount() - c.finished; d != 0 {
		out += fmt.Sprintf(" finished%+d", d)
	}
	if d := c.co.StatsNow().Stale - c.stale; d != 0 {
		out += fmt.Sprintf(" stale%+d", d)
	}
	return out
}

func TestPeerRecordMerge(t *testing.T) {
	// want[local] lists the outcome for an incoming record that is
	// pending, ongoing and finished, in that order.
	want := map[string][3]string{
		"unknown":   {"pending#5 queued", "ongoing#5 held:predecessor", "finished#5 finished+1"},
		"collected": {"absent stale+1", "absent stale+1", "absent stale+1"},
		"pending":   {"pending#5 queued", "ongoing#5 queued held:predecessor", "finished#5 finished+1"},
		"ongoing":   {"pending#5", "ongoing#5 held:predecessor", "finished#5 finished+1"},
		"finished":  {"finished#0", "finished#0", "finished#0"},
	}
	for _, local := range []string{"unknown", "collected", "pending", "ongoing", "finished"} {
		for i, in := range []proto.TaskState{proto.TaskPending, proto.TaskOngoing, proto.TaskFinished} {
			t.Run(fmt.Sprintf("ring/%s/%s", local, in), func(t *testing.T) {
				c := newMergeCell(t)
				c.give(local)
				c.send(in)
				if got := c.outcome(); got != want[local][i] {
					t.Errorf("got  %q\nwant %q", got, want[local][i])
				}
			})
		}
	}
}
