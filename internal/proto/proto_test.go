package proto

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCallIDOrdering(t *testing.T) {
	a := CallID{User: "a", Session: 1, Seq: 1}
	b := CallID{User: "a", Session: 1, Seq: 2}
	c := CallID{User: "a", Session: 2, Seq: 1}
	d := CallID{User: "b", Session: 1, Seq: 1}
	for _, pair := range [][2]CallID{{a, b}, {b, c}, {c, d}, {a, d}} {
		if !pair[0].Less(pair[1]) {
			t.Errorf("%v not < %v", pair[0], pair[1])
		}
		if pair[1].Less(pair[0]) {
			t.Errorf("%v < %v unexpectedly", pair[1], pair[0])
		}
	}
	if a.Less(a) {
		t.Error("CallID less than itself")
	}
}

func TestCallIDLessIsStrictOrderQuick(t *testing.T) {
	f := func(u1, u2 uint8, s1, s2 uint16, q1, q2 uint16) bool {
		a := CallID{User: UserID(rune('a' + u1%4)), Session: SessionID(s1 % 4), Seq: RPCSeq(q1 % 8)}
		b := CallID{User: UserID(rune('a' + u2%4)), Session: SessionID(s2 % 4), Seq: RPCSeq(q2 % 8)}
		// Exactly one of <, >, == holds.
		lt, gt, eq := a.Less(b), b.Less(a), a == b
		count := 0
		for _, v := range []bool{lt, gt, eq} {
			if v {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormats(t *testing.T) {
	c := CallID{User: "alice", Session: 7, Seq: 42}
	if got := c.String(); got != "alice/7/42" {
		t.Errorf("CallID.String() = %q", got)
	}
	tk := TaskID{Call: c, Instance: 3}
	if got := tk.String(); got != "alice/7/42#3" {
		t.Errorf("TaskID.String() = %q", got)
	}
	if RoleClient.String() != "client" || RoleCoordinator.String() != "coordinator" ||
		RoleServer.String() != "server" {
		t.Error("role names wrong")
	}
	if TaskPending.String() != "pending" || TaskOngoing.String() != "ongoing" ||
		TaskFinished.String() != "finished" {
		t.Error("task state names wrong")
	}
}

// TestIDKeysAreTheFmtForms pins CallID.String, TaskID.String and
// TaskID.Key to the fmt.Sprintf forms they replaced: the forms the
// stored layout names records by (TestStoredLayoutIsUnchanged's keys).
// Random IDs, then users with slashes, zero values and the largest
// numbers.
func TestIDKeysAreTheFmtForms(t *testing.T) {
	check := func(user string, session, seq uint64, instance uint32) bool {
		c := CallID{User: UserID(user), Session: SessionID(session), Seq: RPCSeq(seq)}
		tk := TaskID{Call: c, Instance: instance}
		call := fmt.Sprintf("%s/%d/%d", c.User, c.Session, c.Seq)
		task := fmt.Sprintf("%s#%d", call, tk.Instance)
		for _, got := range [][2]string{
			{c.String(), call},
			{tk.String(), task},
			{tk.Key("", '/'), task},
			{tk.Key("server/result/", '_'), "server/result/" + strings.ReplaceAll(task, "/", "_")},
		} {
			if got[0] != got[1] {
				t.Errorf("%q, want %q", got[0], got[1])
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, user := range []string{"", "/", "a/b", "/lead", "trail/", "u//v", "ü/ñ"} {
		for _, n := range []uint64{0, 1, 9, 10, math.MaxUint32, math.MaxUint64} {
			if !check(user, n, math.MaxUint64-n, uint32(n)) || !check(user, 0, n, math.MaxUint32) {
				t.Fatalf("user %q, n %d", user, n)
			}
		}
	}
	tk := TaskID{Call: CallID{User: "u0", Session: 1 << 40, Seq: 12345}, Instance: 2}
	if n := testing.AllocsPerRun(100, func() { _ = tk.Key("server/result/", '_') }); n > 1 {
		t.Fatalf("TaskID.Key allocates %v times, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = tk.Call.String() }); n > 1 {
		t.Fatalf("CallID.String allocates %v times, want at most 1", n)
	}
}

func TestJobRecordCodecRoundTrip(t *testing.T) {
	rec := &JobRecord{
		Call:       CallID{User: "u", Session: 2, Seq: 9},
		Service:    "alcatel",
		Params:     []byte{1, 2, 3},
		ExecTime:   90 * time.Second,
		ResultSize: 8192,
		State:      TaskFinished,
		Instance:   4,
		Output:     []byte("report"),
		ResultErr:  "",
		Server:     "server-003",
	}
	got, err := DecodeJob(EncodeJob(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got.Call != rec.Call || got.Service != rec.Service || got.State != rec.State ||
		got.Instance != rec.Instance || string(got.Output) != string(rec.Output) ||
		got.Server != rec.Server || got.ExecTime != rec.ExecTime {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, rec)
	}
}

func TestDecodeJobRejectsGarbage(t *testing.T) {
	if _, err := DecodeJob([]byte("not a job")); err == nil {
		t.Fatal("DecodeJob accepted garbage")
	}
	if _, err := DecodeJob(nil); err == nil {
		t.Fatal("DecodeJob accepted empty input")
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	msgs := []Message{
		&Submit{Call: CallID{User: "u", Session: 1, Seq: 1}, Service: "s", Params: []byte{9}},
		&SubmitAck{Call: CallID{User: "u", Session: 1, Seq: 1}, MaxSeq: 5},
		&Poll{User: "u", Session: 1, Ack: 3, Have: []RPCSeq{5, 6}},
		&Results{User: "u", Session: 1, Results: []Result{{Output: []byte("r")}}},
		&SyncRequest{User: "u", Session: 1, MaxSeq: 3, HaveLog: true},
		&SyncReply{User: "u", Session: 1, MaxSeq: 3, Known: []RPCSeq{1}},
		&Heartbeat{From: "server-001", Role: RoleServer, Capacity: 1, WantWork: true},
		&HeartbeatAck{From: "coord-00", Coordinators: []NodeID{"coord-00"}},
		&TaskResult{From: "server-001", Task: TaskID{Instance: 1}, Output: []byte("o")},
		&TaskResultAck{Task: TaskID{Instance: 1}},
		&ServerSync{From: "server-001", Tasks: []TaskID{{Instance: 1}}, Running: []TaskID{{Instance: 2}}},
		&ServerSyncReply{Resend: []TaskID{{Instance: 1}}},
		&ReplicaUpdate{From: "coord-00", Epoch: 3, Jobs: []JobRecord{{Service: "s"}}},
		&ReplicaAck{From: "coord-01", Epoch: 3},
	}
	for _, m := range msgs {
		raw := EncodeMessage(m)
		got, err := DecodeMessage(raw)
		if err != nil {
			t.Errorf("%s: decode: %v", m.Kind(), err)
			continue
		}
		if got.Kind() != m.Kind() {
			t.Errorf("round trip changed kind: %s -> %s", m.Kind(), got.Kind())
		}
	}
}

func TestDecodeMessageRejectsGarbage(t *testing.T) {
	if _, err := DecodeMessage([]byte{1, 2, 3}); err == nil {
		t.Fatal("DecodeMessage accepted garbage")
	}
}

func TestWireSizeScalesWithPayload(t *testing.T) {
	small := (&Submit{Params: make([]byte, 10)}).WireSize()
	big := (&Submit{Params: make([]byte, 10_000)}).WireSize()
	if big-small != 9990 {
		t.Fatalf("WireSize delta = %d, want 9990", big-small)
	}
	hb := (&Heartbeat{}).WireSize()
	if hb <= 0 || hb > 1024 {
		t.Fatalf("heartbeat size %d not small", hb)
	}
	// HeartbeatAck grows with assigned task payloads.
	ack0 := (&HeartbeatAck{}).WireSize()
	ack1 := (&HeartbeatAck{Tasks: []TaskAssignment{{Params: make([]byte, 1000)}}}).WireSize()
	if ack1-ack0 < 1000 {
		t.Fatalf("ack does not account for task payloads: %d vs %d", ack0, ack1)
	}
}
