package rt

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/proto"
)

// wireSampleMessages returns one populated instance of every protocol
// message kind (the rt-level mirror of proto's round-trip sample set).
func wireSampleMessages() []proto.Message {
	call := proto.CallID{User: "user-01", Session: 7, Seq: 42}
	task := proto.TaskID{Call: call, Instance: 3}
	deadline := time.Unix(1_000_000_600, 0).UTC()
	return []proto.Message{
		&proto.Submit{Call: call, Service: "svc", Params: []byte{1, 2}, ExecTime: time.Second, ResultSize: 8, Deadline: time.Minute},
		&proto.SubmitAck{Call: call, MaxSeq: 42},
		&proto.Poll{User: "user-01", Session: 7, Ack: 40, Have: []proto.RPCSeq{42, 43, 47}},
		&proto.Results{User: "user-01", Session: 7, Results: []proto.Result{{Call: call, Output: []byte{9}, Err: "e", Server: "server-000"}}},
		&proto.SyncRequest{User: "user-01", Session: 7, MaxSeq: 42, HaveLog: true},
		&proto.SyncReply{User: "user-01", Session: 7, MaxSeq: 42, Known: []proto.RPCSeq{1, 2}},
		&proto.Heartbeat{From: "server-000", Role: proto.RoleServer, Capacity: 2, WantWork: true},
		&proto.HeartbeatAck{From: "coord-00", Tasks: []proto.TaskAssignment{{Task: task, Service: "svc", Params: []byte{5}}}, Coordinators: []proto.NodeID{"coord-00"}},
		&proto.TaskResult{From: "server-000", Task: task, Output: []byte{6}, Err: "x", Exec: time.Second},
		&proto.TaskResultAck{Task: task},
		&proto.TaskCancel{Task: task},
		&proto.ServerSync{From: "server-000", Tasks: []proto.TaskID{task}, Running: []proto.TaskID{task}},
		&proto.ServerSyncReply{Resend: []proto.TaskID{task}, Drop: []proto.TaskID{task}},
		&proto.ReplicaUpdate{From: "coord-00", Epoch: 2, Round: 5, Jobs: []proto.JobRecord{
			{Call: call, Service: "svc", State: proto.TaskFinished, Output: []byte{7}},
			{Call: call, Service: "svc", Params: []byte{8}, ExecTime: time.Second, Deadline: deadline, State: proto.TaskOngoing, Instance: 2},
		}, MaxSeqs: []proto.SessionMax{{User: "user-01", Session: 7, MaxSeq: 42}}},
		&proto.ReplicaAck{From: "coord-01", Epoch: 2, Round: 5},
		&proto.SimFault{Suite: "default", Scenario: "oneway", Cell: "store=wal policy=fcfs loops=1", Fault: "partition",
			Node: "coord-00", Peer: "server-000", At: 2 * time.Second, Detail: "block co-0 -> sv-0"},
		&proto.SimVerdict{Suite: "default", Scenario: "oneway", Cell: "store=wal policy=fcfs loops=1", Verdict: "pass",
			Digest: "sha256:00ff", Delivered: 40, Expected: 40, Faults: 2, Elapsed: 3 * time.Second},
	}
}

// recorder is a handler that only records what it receives (unlike
// echo it never replies, keeping the received sequence exactly the
// sent sequence).
type recorder struct {
	env  node.Env
	mu   sync.Mutex
	from []proto.NodeID
	seen []proto.Message
}

func (r *recorder) Start(env node.Env) { r.env = env }
func (r *recorder) Stop()              {}
func (r *recorder) Receive(from proto.NodeID, m proto.Message) {
	r.mu.Lock()
	r.from = append(r.from, from)
	r.seen = append(r.seen, m)
	r.mu.Unlock()
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.seen)
}

// TestEveryMessageKindArrivesIntactOverTCP streams every message kind
// between two runtimes over real TCP, in both directions: each side
// must receive structurally identical values, in order, each stamped
// with its sender's ID.
func TestEveryMessageKindArrivesIntactOverTCP(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	ra, err := Start(Config{ID: "a", ListenAddr: "127.0.0.1:0", Handler: a, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	rb, err := Start(Config{ID: "b", ListenAddr: "127.0.0.1:0", Handler: b, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	ra.SetPeer("b", rb.Addr())
	rb.SetPeer("a", ra.Addr())

	msgs := wireSampleMessages()
	ra.Do(func() {
		for _, m := range msgs {
			a.env.Send("b", m)
		}
	})
	rb.Do(func() {
		for _, m := range msgs {
			b.env.Send("a", m)
		}
	})

	check := func(name string, rec *recorder, wantFrom proto.NodeID) {
		if !waitFor(t, 10*time.Second, func() bool { return rec.count() == len(msgs) }) {
			t.Fatalf("%s received %d/%d messages", name, rec.count(), len(msgs))
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		for i, want := range msgs {
			if rec.from[i] != wantFrom {
				t.Errorf("%s message %d: from = %s, want %s", name, i, rec.from[i], wantFrom)
			}
			if !reflect.DeepEqual(want, rec.seen[i]) {
				t.Errorf("%s message %d (%s): mismatch:\n sent %#v\n got  %#v",
					name, i, want.Kind(), want, rec.seen[i])
			}
		}
	}
	check("b", b, "a")
	check("a", a, "b")
}
