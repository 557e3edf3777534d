package proto

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"slices"
	"testing"
)

// Each class is what the runtime rounds an allocation of its smallest
// length up to: a pooled payload costs what a make of its length would,
// never more, and the classes run from the smallest allocation to
// maxPooledBuffer.
func TestPayloadClassesAreTheAllocatorsRounding(t *testing.T) {
	lo := 1
	for c := range payloadPools {
		hi := payloadClassCap(c)
		if got := cap(append([]byte(nil), make([]byte, lo)...)); got != hi {
			t.Fatalf("class %d holds %d..%d B, but the runtime rounds %d B to %d", c, lo, hi, lo, got)
		}
		if payloadClass(lo) != c || payloadClass(hi) != c {
			t.Fatalf("class %d holds %d..%d B, but they map to classes %d and %d", c, lo, hi, payloadClass(lo), payloadClass(hi))
		}
		lo = hi + 1
	}
	if lo != maxPooledBuffer+1 {
		t.Fatalf("the last class ends at %d B, want %d", lo-1, maxPooledBuffer)
	}
}

// pooledSubmit frames a Submit whose size-byte payload is filled from
// seed: consecutive calls make payloads of other bytes.
func pooledSubmit(size int, seed byte) *Submit {
	p := make([]byte, size)
	for i := range p {
		p[i] = seed + byte(i*7)
	}
	return &Submit{Call: CallID{User: "u", Session: 1, Seq: RPCSeq(seed)}, Service: "echo", Params: p}
}

// A decoder reading 64 KiB, 5 KiB and 64 KiB + 1 payloads, each given
// back before the next frame, returns every one byte for byte and
// exactly its length — in a buffer of its class, and on the second round
// in the buffers the first gave back, read over whole.
func TestWireDecoderReadsIntoReleasedPayloads(t *testing.T) {
	sizes := []int{64 << 10, 5 << 10, 64<<10 + 1}
	var msgs []Message
	for round := 0; round < 2; round++ {
		for i, size := range sizes {
			msgs = append(msgs, pooledSubmit(size, byte(10*round+i+1)))
		}
	}
	for _, r := range readers(stream(t, msgs)) {
		dec := NewWireDecoder(r)
		for i, want := range msgs {
			_, got, err := dec.Next()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			p, wantP := got.(*Submit).Params, want.(*Submit).Params
			if len(p) != len(wantP) || !bytes.Equal(p, wantP) {
				t.Fatalf("frame %d: a %d B payload came back as %d B, equal %v", i, len(wantP), len(p), bytes.Equal(p, wantP))
			}
			if c := payloadClassCap(payloadClass(len(p))); cap(p) != c {
				t.Fatalf("frame %d: a %d B payload has capacity %d, want its class's %d", i, len(p), cap(p), c)
			}
			ReleasePayload(p)
		}
	}
}

// A frame torn inside its payload, read where a released buffer waits,
// is an error and no message: never a payload holding the bytes of the
// one before.
func TestTornPayloadIntoAReleasedBufferIsAnError(t *testing.T) {
	whole := mustFrame(t, nil, "node-a", pooledSubmit(64<<10, 1))
	torn := mustFrame(t, nil, "node-a", pooledSubmit(64<<10, 2))
	torn = torn[:len(torn)/2]
	for _, r := range readers(append(whole, torn...)) {
		dec := NewWireDecoder(r)
		_, got, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		ReleasePayload(got.(*Submit).Params)
		if _, msg, err := dec.Next(); !errors.Is(err, io.ErrUnexpectedEOF) || msg != nil {
			t.Fatalf("a frame torn mid-payload decoded to %v, %v; want no message and ErrUnexpectedEOF", msg, err)
		}
	}
}

// Only the wire draws from the pool, and only from BlobMin to
// maxPooledBuffer: storage decodes — messages, log entries, job records
// — and payloads outside that range are plain allocations, exactly
// their length. 5 KiB and 64 KiB + 1 tell the two apart: their classes
// are larger than they are.
func TestOnlyTheWireDrawsPooledPayloads(t *testing.T) {
	plain := func(what string, p []byte, n int) {
		t.Helper()
		if len(p) != n || cap(p) != n {
			t.Fatalf("%s: a %d B payload is %d B with capacity %d, want a plain allocation", what, n, len(p), cap(p))
		}
	}
	var dec Decoder
	for _, n := range []int{5 << 10, 64<<10 + 1} {
		sub := pooledSubmit(n, 3)
		msg, err := dec.DecodeMessage(EncodeMessage(sub))
		if err != nil {
			t.Fatal(err)
		}
		plain("DecodeMessage", msg.(*Submit).Params, n)

		// A whole encoding decodes through DecodeLogged as a message;
		// a header takes the blob stored beside it.
		if msg, err = dec.DecodeLogged(EncodeMessage(sub), nil); err != nil {
			t.Fatal(err)
		}
		plain("DecodeLogged, whole", msg.(*Submit).Params, n)
		header, blob := EncodeLogged(sub)
		if msg, err = dec.DecodeLogged(header, blob); err != nil {
			t.Fatal(err)
		}
		if p := msg.(*Submit).Params; &p[0] != &blob[0] {
			t.Fatal("DecodeLogged: the payload is not the blob it was given")
		}

		rec := &JobRecord{Call: sub.Call, Service: "echo", Params: sub.Params, Output: sub.Params, State: TaskFinished}
		got, err := dec.DecodeJob(EncodeJob(rec))
		if err != nil {
			t.Fatal(err)
		}
		plain("DecodeJob, params", got.Params, n)
		plain("DecodeJob, output", got.Output, n)
		msg, err = dec.DecodeMessage(EncodeMessage(&ReplicaUpdate{From: "co", Jobs: []JobRecord{*rec}}))
		if err != nil {
			t.Fatal(err)
		}
		plain("DecodeMessage, a replicated job", msg.(*ReplicaUpdate).Jobs[0].Params, n)
	}

	for _, n := range []int{BlobMin - 1, maxPooledBuffer + 1} {
		_, msg, err := NewWireDecoder(bytes.NewReader(mustFrame(t, nil, "node-a", pooledSubmit(n, 4)))).Next()
		if err != nil {
			t.Fatal(err)
		}
		plain("WireDecoder", msg.(*Submit).Params, n)
	}
	_, msg, err := NewWireDecoder(bytes.NewReader(mustFrame(t, nil, "node-a", pooledSubmit(5<<10, 5)))).Next()
	if err != nil {
		t.Fatal(err)
	}
	if p := msg.(*Submit).Params; cap(p) != payloadClassCap(payloadClass(len(p))) {
		t.Fatalf("WireDecoder: a %d B payload has capacity %d, not its class's", len(p), cap(p))
	}
}

// ReleasePayload keeps only buffers of a class's capacity: anything
// else — a slice of one, a plain allocation of another length, a
// payload under BlobMin — is never handed to a later payload.
func TestReleasePayloadKeepsOnlyWholeClasses(t *testing.T) {
	for _, b := range [][]byte{make([]byte, 5000), make([]byte, 64<<10)[1:], make([]byte, BlobMin-1), make([]byte, maxPooledBuffer+payloadPage)} {
		for i := range b {
			b[i] = 0xEE
		}
		ReleasePayload(b)
		for c := range payloadPools {
			if pb, _ := payloadPools[c].Get().(*payloadBuf); pb != nil {
				if cap(pb.b) != payloadClassCap(c) {
					t.Fatalf("class %d holds a buffer of capacity %d after releasing a %d B one", c, cap(pb.b), cap(b))
				}
				payloadPools[c].Put(pb)
			}
		}
	}
}

// A message struct given back (ReleaseMessage) is the one the next
// decode of its kind fills, and it fills every field: each kind decodes
// whole after another of its kind went back — in race builds a poisoned
// one — and a warm decoder reading heartbeats, each given back once
// read, allocates nothing, where it allocated the struct per frame.
func TestReleasedStructIsTheNextDecodes(t *testing.T) {
	for _, want := range allMessages() {
		frame := mustFrame(t, nil, "node-a", want)
		for round := 0; round < 2; round++ {
			_, got, err := NewWireDecoder(bytes.NewReader(frame)).Next()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: a %s decoded into a given-back struct as %#v", round, want.Kind(), got)
			}
			ReleaseMessage(got)
		}
	}

	if raceBuild {
		t.Skip("allocation guard: the race detector's sync.Pool drops structs")
	}
	frame := mustFrame(t, nil, "node-a", &Heartbeat{From: "server-000", Role: RoleServer, Capacity: 2, WantWork: true})
	r := bytes.NewReader(frame)
	dec := NewWireDecoder(r)
	next := func() {
		r.Reset(frame)
		_, msg, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		ReleaseMessage(msg)
	}
	next() // warm: the window, the intern table
	if n := testing.AllocsPerRun(200, next); n != 0 {
		t.Fatalf("reading a heartbeat into a given-back struct allocates %.1f times", n)
	}
}

// pooledCopy is Pooled(*m), for a message of any kind.
func pooledCopy(m Message) Message {
	switch m := m.(type) {
	case *Submit:
		return Pooled(*m)
	case *SubmitAck:
		return Pooled(*m)
	case *Poll:
		return Pooled(*m)
	case *Results:
		return Pooled(*m)
	case *SyncRequest:
		return Pooled(*m)
	case *SyncReply:
		return Pooled(*m)
	case *Heartbeat:
		return Pooled(*m)
	case *HeartbeatAck:
		return Pooled(*m)
	case *TaskResult:
		return Pooled(*m)
	case *TaskResultAck:
		return Pooled(*m)
	case *TaskCancel:
		return Pooled(*m)
	case *ServerSync:
		return Pooled(*m)
	case *ServerSyncReply:
		return Pooled(*m)
	case *ReplicaUpdate:
		return Pooled(*m)
	case *ReplicaAck:
		return Pooled(*m)
	}
	panic("unregistered message type")
}

// Pooled builds a message in a struct from its kind's pool — the one
// given back last, outside race builds, whose pools drop a share — that
// holds exactly the value asked for, and a warm pool allocates nothing.
func TestPooledTakesAGivenBackStruct(t *testing.T) {
	for _, want := range allMessages() {
		back := pooledCopy(want)
		ReleaseMessage(back)
		got := pooledCopy(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a pooled %s holds %#v", want.Kind(), got)
		}
		if !raceBuild && got != back {
			t.Errorf("a pooled %s is a new struct, not the one given back", want.Kind())
		}
		ReleaseMessage(got)
	}
	if raceBuild {
		t.Skip("allocation guard: the race detector's sync.Pool drops structs")
	}
	ReleaseMessage(&TaskResultAck{})
	if n := testing.AllocsPerRun(200, func() {
		ReleaseMessage(Pooled(TaskResultAck{Task: TaskID{Call: CallID{User: "u", Seq: 1}}}))
	}); n != 0 {
		t.Fatalf("a pooled TaskResultAck allocates %.1f times", n)
	}
}

// In race builds a struct given back twice with no fill between panics
// at the second give-back: a message sent twice, or sent and also
// received, fails where it happens. A struct given back while it holds
// a message — even an empty one, every list nil — does not.
func TestGivingBackTwicePanicsInRaceBuilds(t *testing.T) {
	if !raceBuild {
		t.Skip("the guard is the race build's: elsewhere a struct goes back zeroed, with no mark")
	}
	twice := func(m Message) (msg any) {
		defer func() { msg = recover() }()
		ReleaseMessage(m)
		return nil
	}
	for _, m := range append(allMessages(), &ServerSyncReply{}, &TaskResultAck{}, &Results{}) {
		if got := twice(m); got != nil {
			t.Fatalf("giving back a %s %#v panicked: %v", m.Kind(), m, got)
		}
		if got := twice(m); got != "proto: message recycled twice" {
			t.Fatalf("giving back a %s twice: %v; want the panic", m.Kind(), got)
		}
	}
}

// A struct goes back with its lists (ReleaseMessage): each keeps its
// array at length 0, every element zeroed — poisoned in race builds —
// unless the array is over maxKeptList, and a HeartbeatAck's
// Coordinators, a coordinator's own member list, is never kept. The
// next decode reads its lists into those arrays, the next Blank of the
// kind hands them to a sender to append to, and the next Pooled drops
// them for the lists it is given.
func TestReleasedListsGoBackWithTheirStruct(t *testing.T) {
	coords := []NodeID{"coord-00", "coord-01"}
	tasks := make([]TaskAssignment, 2, 4)
	tasks[0].Service, tasks[1].Params = "svc", []byte{1}
	ack := &HeartbeatAck{From: "coord-00", Tasks: tasks, Coordinators: coords}
	Blank[HeartbeatAck]() // the struct an earlier test gave back, if any, is not the next one
	ReleaseMessage(ack)
	if !slices.Equal(coords, []NodeID{"coord-00", "coord-01"}) {
		t.Fatalf("giving back a HeartbeatAck changed its Coordinators to %q", coords)
	}
	for i, task := range tasks[:cap(tasks)] {
		if raceBuild {
			if task.Service != "proto: recycled message" {
				t.Fatalf("a kept task %d reads %#v, not poison", i, task)
			}
		} else if !reflect.DeepEqual(task, TaskAssignment{}) {
			t.Fatalf("a kept task %d still holds %#v", i, task)
		}
	}
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops structs: which one comes back is not known")
	}
	next := Blank[HeartbeatAck]()
	if next != ack || len(next.Tasks) != 0 || cap(next.Tasks) != 4 || &next.Tasks[:1][0] != &tasks[0] || next.Coordinators != nil || next.From != "" {
		t.Fatalf("Blank took %p %#v, want %p, empty but for the tasks' array", next, next, ack)
	}
	ReleaseMessage(next)
	if got := Pooled(HeartbeatAck{From: "coord-00"}); got != ack || got.Tasks != nil {
		t.Fatalf("Pooled took %#v, want the struct given back without its array", got)
	}

	big := make([]RPCSeq, 0, maxKeptList/8+1)
	poll := &Poll{User: "u", Have: big}
	Blank[Poll]()
	ReleaseMessage(poll)
	if got := Blank[Poll](); got != poll || got.Have != nil {
		t.Fatalf("a Poll given back with a %d B list came back with %d elements of room", cap(big)*8, cap(got.Have))
	}
}

// A warm decoder reading list-carrying messages into given-back structs
// allocates nothing: each list is read into the array its struct kept.
// So does a sender building one with Blank, its list appended to.
func TestReleasedListsAreTheNextDecodes(t *testing.T) {
	if raceBuild {
		t.Skip("allocation guard: the race detector's sync.Pool drops structs")
	}
	task := TaskID{Call: CallID{User: "user-01", Session: 7, Seq: 42}, Instance: 3}
	for _, msg := range []Message{
		&Poll{User: "user-01", Session: 7, Ack: 40, Have: []RPCSeq{42, 43}},
		&Results{User: "user-01", Session: 7, Results: []Result{{Call: task.Call, Err: "e", Server: "server-000"}, {Call: task.Call}}},
		&HeartbeatAck{From: "coord-00", Tasks: []TaskAssignment{{Task: task, Service: "svc"}, {Task: task, Service: "svc"}}},
		&ServerSync{From: "server-000", Tasks: []TaskID{task}, Running: []TaskID{task, task}},
	} {
		frame := mustFrame(t, nil, "node-a", msg)
		r := bytes.NewReader(frame)
		dec := NewWireDecoder(r)
		next := func() {
			r.Reset(frame)
			_, got, err := dec.Next()
			if err != nil {
				t.Fatal(err)
			}
			ReleaseMessage(got)
		}
		next() // warm: the window, the intern table, the struct's arrays
		if n := testing.AllocsPerRun(200, next); n != 0 {
			t.Errorf("reading a %s into a given-back struct allocates %.1f times", msg.Kind(), n)
		}
	}
	build := func() {
		res := Blank[Results]()
		res.User, res.Session = "user-01", 7
		res.Results = append(res.Results, Result{Call: task.Call}, Result{Call: task.Call})
		ReleaseMessage(res)
	}
	build()
	if n := testing.AllocsPerRun(200, build); n != 0 {
		t.Errorf("building a Results in a given-back struct allocates %.1f times", n)
	}
}
