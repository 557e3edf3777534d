package coordinator

import (
	"bytes"
	"testing"
	"time"

	"rpcv/internal/node/nodetest"
	"rpcv/internal/proto"
)

// held returns what d holds under key, with a copy of its bytes.
func held(t *testing.T, d *nodetest.HandDisk, key string) (v, now []byte) {
	t.Helper()
	v, ok := d.Data[key]
	if !ok {
		t.Fatalf("%s is not on the disk", key)
	}
	return v, bytes.Clone(v)
}

// churn encodes job headers of every size around a call's, as the
// coordinator's next calls would: a header given back too early is
// drawn from proto's pool by one of them and written over.
func churn() {
	params := bytes.Repeat([]byte{0x5A}, 512)
	for n := range params {
		rec := proto.JobRecord{Call: proto.CallID{User: "churn", Session: 9, Seq: proto.RPCSeq(n + 1)},
			Service: "synthetic", Params: params[:n], State: proto.TaskPending}
		proto.EncodeJobHeader(&rec)
	}
}

// A stored header goes back to proto's pool only once the store has let
// go of it: a header a rewrite replaces keeps its bytes until that write
// has completed, and one a delete removes until the delete has, however
// many headers are encoded meanwhile; a failed or torn write, and a
// failed delete, give nothing back. Each check reads the header's bytes
// against a copy taken while the disk held it, after a churn of encodes
// that would have drawn it from the pool: a header given back at staging
// is written over here, in every build, and poisoned in race builds.
func TestHeadersGoBackOnlyOnceTheStoreLetGo(t *testing.T) {
	d := nodetest.NewHandDisk()
	env := nodetest.NewEnv("co", d)
	co := New(Config{Coordinators: []proto.NodeID{"co"}, HeartbeatPeriod: 100 * time.Millisecond, HeartbeatTimeout: 24 * time.Hour})
	co.Start(env)
	defer co.Stop()
	deliver := func(from proto.NodeID, msg proto.Message) []proto.Message {
		co.Receive(from, msg)
		return env.Take()
	}
	intact := func(header, want []byte, what string) {
		t.Helper()
		churn()
		if !bytes.Equal(header, want) {
			t.Fatalf("a header %s was given back: its bytes changed", what)
		}
	}
	assign := func() proto.TaskID {
		t.Helper()
		for _, m := range deliver("sv0", &proto.Heartbeat{From: "sv0", Role: proto.RoleServer, Capacity: 1, WantWork: true}) {
			if ack, ok := m.(*proto.HeartbeatAck); ok && len(ack.Tasks) == 1 {
				return ack.Tasks[0].Task
			}
		}
		t.Fatal("no call assigned")
		return proto.TaskID{}
	}
	key1, key2 := jobKey(call(1)), jobKey(call(2))

	// Call 1 is rewritten at its assignment: the header of its submit
	// stays whole until the write of the assignment's has completed.
	deliver("cl", submit(1))
	d.Complete()
	submitted, want := held(t, d, key1)
	task1 := assign()
	intact(submitted, want, "that a staged rewrite replaced")
	d.Complete()
	deliver("sv0", &proto.TaskResult{From: "sv0", Task: task1, Output: []byte("r")})
	d.Complete()

	// Call 2's assignment fails and its result tears: neither gives
	// back the header it replaced.
	deliver("cl", submit(2))
	d.Complete()
	submitted, want = held(t, d, key2)
	d.Faults[key2] = "fail"
	task2 := assign()
	d.Complete()
	intact(submitted, want, "that a failed rewrite replaced")
	assigned, want := held(t, d, key2)
	d.Faults[key2] = "torn"
	deliver("sv0", &proto.TaskResult{From: "sv0", Task: task2, Output: []byte("r")})
	d.Complete()
	intact(assigned, want, "that a torn rewrite replaced")

	// Both are collected: the watermark's write first, then at the next
	// flush the deletes, whose headers stay whole until they complete;
	// call 2's delete fails, and its header stays on the disk, whole.
	deliver("cl", &proto.Poll{User: "u", Session: 1})
	deliver("cl", &proto.Poll{User: "u", Session: 1, Ack: 2})
	if n := co.DB().Len(); n != 0 {
		t.Fatalf("%d records left in the table after Poll{Ack: 2}", n)
	}
	env.Advance(flushBeats * 100 * time.Millisecond)
	d.Complete()
	finished1, want1 := held(t, d, key1)
	finished2, want2 := held(t, d, key2)
	d.Faults[key2] = "fail"
	env.Advance(flushBeats * 100 * time.Millisecond)
	if _, ok := d.Data[key1]; ok {
		t.Fatal("the flush staged no delete of call 1's header")
	}
	intact(finished1, want1, "whose staged delete had not completed")
	intact(finished2, want2, "whose staged delete had not completed")
	d.Complete()
	intact(finished2, want2, "whose delete failed")
	if v, ok := d.Data[key2]; !ok || &v[0] != &finished2[0] {
		t.Fatal("the header whose delete failed is not on the disk as it was")
	}
}
