package proto

import (
	"reflect"
	"testing"
	"time"
)

// allMessages returns one populated instance of every protocol message.
// Every type registered in codec.go must appear here (and vice versa):
// the round-trip below turns a forgotten gob.Register into a test
// failure instead of a runtime panic in the TCP transport.
func allMessages() []Message {
	call := CallID{User: "user-01", Session: 7, Seq: 42}
	task := TaskID{Call: call, Instance: 3}
	st := ShardMapState{
		Version: 9,
		VNodes:  64,
		Rings:   [][]NodeID{{"coord-00", "coord-01"}, {"coord-02", "coord-03"}},
	}
	deadline := time.Unix(1_000_000_600, 0).UTC()
	return []Message{
		&Submit{Call: call, Service: "svc", Params: []byte{1, 2}, ExecTime: time.Second, ResultSize: 8, Deadline: time.Minute},
		&SubmitAck{Call: call, MaxSeq: 42},
		&Poll{User: "user-01", Session: 7, Ack: 40, Have: []RPCSeq{42, 43, 47}},
		&Results{User: "user-01", Session: 7, Results: []Result{{Call: call, Output: []byte{9}, Err: "e", Server: "server-000"}}},
		&SyncRequest{User: "user-01", Session: 7, MaxSeq: 42, HaveLog: true},
		&SyncReply{User: "user-01", Session: 7, MaxSeq: 42, Known: []RPCSeq{1, 2}},
		&FetchResult{User: "user-01", Session: 7, Seq: 42},
		&FetchReply{Call: call, Known: true, Finished: true, Result: Result{Call: call, Output: []byte{4}}},
		&Heartbeat{From: "server-000", Role: RoleServer, Capacity: 2, WantWork: true},
		&HeartbeatAck{From: "coord-00", Tasks: []TaskAssignment{{Task: task, Service: "svc", Params: []byte{5}}}, Coordinators: []NodeID{"coord-00"}},
		&TaskResult{From: "server-000", Task: task, Output: []byte{6}, Err: "x", Exec: time.Second},
		&TaskResultAck{Task: task},
		&TaskCancel{Task: task},
		&ServerSync{From: "server-000", Tasks: []TaskID{task}, Running: []TaskID{task}},
		&ServerSyncReply{Resend: []TaskID{task}, Drop: []TaskID{task}},
		&ReplicaUpdate{From: "coord-00", Epoch: 2, Round: 5, Jobs: []JobRecord{{Call: call, Service: "svc", State: TaskFinished, Output: []byte{7}}}, MaxSeqs: []SessionMax{{User: "user-01", Session: 7, MaxSeq: 42}}},
		&ReplicaAck{From: "coord-01", Epoch: 2, Round: 5},
		&ShardMapRequest{From: "client-00"},
		&ShardMapReply{Map: st},
		&ShardRedirect{From: "coord-00", User: "user-01", Session: 7, Call: call, Shard: 1, Map: st},
		&ShardSync{From: "coord-00", Shard: 0, Epoch: 2, Round: 5, Jobs: []JobRecord{{Call: call, State: TaskFinished}}, Sessions: []SessionSeqs{{User: "user-01", Session: 7, Seqs: []RPCSeq{1, 42}}}},
		&ShardSyncAck{From: "coord-02", Shard: 1, Epoch: 2, Round: 5, Want: []CallID{call}},
		&StealRequest{From: "coord-02", Shard: 1, Epoch: 2, Round: 3, Capacity: 4},
		&StealGrant{From: "coord-00", Shard: 0, Epoch: 2, Round: 3, Jobs: []JobRecord{
			{Call: call, Service: "svc", Params: []byte{8}, ExecTime: time.Second, Deadline: deadline, State: TaskOngoing, Instance: 2},
		}},
		&SimFault{Suite: "default", Scenario: "oneway", Cell: "wire=binary store=wal",
			Fault: "partition", Node: "coord-00", Peer: "server-000",
			At: 2 * time.Second, Detail: "block co-0 -> sv-0"},
		&SimVerdict{Suite: "default", Scenario: "oneway", Cell: "wire=binary store=wal",
			Verdict: "pass", Digest: "sha256:00ff", Delivered: 40, Expected: 40,
			Faults: 2, Elapsed: 3 * time.Second},
	}
}

// TestGobRoundTripEveryMessage encodes and decodes every message type
// through the legacy gob envelope and requires a structurally
// identical value back — the decode auto-detecting that the blob is
// gob, exactly as recovery of a pre-binary log does. CodecGob's
// EncodeMessage panics on an unregistered type, so this test fails
// fast when a new message misses its gob.Register.
func TestGobRoundTripEveryMessage(t *testing.T) {
	for _, msg := range allMessages() {
		raw := CodecGob.EncodeMessage(msg)
		back, err := DecodeMessage(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", msg.Kind(), err)
		}
		if !reflect.DeepEqual(msg, back) {
			t.Errorf("%s: round trip mismatch:\n sent %#v\n got  %#v", msg.Kind(), msg, back)
		}
		if back.Kind() != msg.Kind() {
			t.Errorf("kind changed: %s -> %s", msg.Kind(), back.Kind())
		}
		if msg.WireSize() < headerSize {
			t.Errorf("%s: WireSize %d below header size", msg.Kind(), msg.WireSize())
		}
	}
}

// TestGobRoundTripCoversEveryMessageType walks the package's message
// set by reflection over the allMessages sample and asserts no two
// entries share a type, so a copy-paste duplicate cannot silently mask
// a missing type.
func TestGobRoundTripCoversEveryMessageType(t *testing.T) {
	seen := make(map[reflect.Type]bool)
	for _, msg := range allMessages() {
		typ := reflect.TypeOf(msg)
		if seen[typ] {
			t.Fatalf("duplicate sample for %v", typ)
		}
		seen[typ] = true
	}
	// One sample per concrete Message implementation in this package.
	const wantTypes = 26
	if len(seen) != wantTypes {
		t.Fatalf("allMessages covers %d types, want %d — update the sample list when adding messages", len(seen), wantTypes)
	}
}
