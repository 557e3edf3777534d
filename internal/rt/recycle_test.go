package rt

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/coordinator"
	"rpcv/internal/node"
	"rpcv/internal/proto"
	"rpcv/internal/server"
)

// forgetful is a handler that keeps no message struct (node.Forgetter):
// it notes each one as it receives it, in the log the recycle hook of
// the test below also writes to, and keeps nothing else of it.
type forgetful struct {
	env node.Env
	log *eventLog
}

func (f *forgetful) Start(env node.Env)                      { f.env = env }
func (f *forgetful) Stop()                                   {}
func (f *forgetful) Receive(_ proto.NodeID, m proto.Message) { f.log.add("received", m) }
func (f *forgetful) ForgetsMessages()                        {}

// eventLog is what happened to which struct, in order.
type eventLog struct {
	mu     sync.Mutex
	events []event
}

type event struct {
	what string
	msg  proto.Message
}

func (l *eventLog) add(what string, m proto.Message) {
	l.mu.Lock()
	l.events = append(l.events, event{what, m})
	l.mu.Unlock()
}

func (l *eventLog) snapshot() []event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]event(nil), l.events...)
}

// A Forgetter hands back the struct of every message it receives, each
// right after its Receive returns; a handler that makes no such promise
// (the recorder, which keeps what it receives) hands back none.
// proto's TestReleasedStructIsTheNextDecodes shows that the next decode
// of the kind then fills that struct instead of allocating one. What the
// Forgetter sends goes back too (TestForgetterHandsBackWhatItSends): here
// those events are told apart by their structs, and set aside.
func TestForgetterHandsItsStructsBack(t *testing.T) {
	var log eventLog
	t.Cleanup(func() { recycle = proto.ReleaseMessage })
	recycle = func(m proto.Message) { log.add("recycled", m) } // recorded, not reused

	a, b := &recorder{}, &forgetful{log: &log}
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
	sent := wireSampleMessages() // the forgetful handler's own structs, one per send
	rb.Do(func() {
		for _, m := range sent {
			b.env.Send("a", m)
		}
	})
	want := 2*len(msgs) + len(sent)
	if !waitFor(t, 10*time.Second, func() bool { return len(log.snapshot()) == want && a.count() == len(msgs) }) {
		t.Fatalf("%d events at the forgetful handler and %d messages at the recorder, want %d and %d",
			len(log.snapshot()), a.count(), want, len(msgs))
	}
	var events []event
	for _, e := range log.snapshot() {
		if !slices.Contains(sent, e.msg) {
			events = append(events, e)
		}
	}
	for i := range msgs {
		got, back := events[2*i], events[2*i+1]
		if got.what != "received" || back.what != "recycled" || got.msg != back.msg {
			t.Fatalf("message %d (%s): %s %p, then %s %p; want each struct received, then recycled",
				i, msgs[i].Kind(), got.what, got.msg, back.what, back.msg)
		}
		if !reflect.DeepEqual(got.msg, msgs[i]) {
			t.Errorf("message %d (%s) arrived as %#v", i, msgs[i].Kind(), got.msg)
		}
	}
	// Every event above is the forgetful handler's: the recorder, no
	// Forgetter, had none of its 15 structs recycled, and keeps them whole.
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, want := range wireSampleMessages() {
		if !reflect.DeepEqual(a.seen[i], want) {
			t.Errorf("the recorder's message %d (%s) is %#v now", i, want.Kind(), a.seen[i])
		}
	}
}

// forwarder sends every message on to next as it got it, the way
// bench's echo sends a message back: no Forgetter, as the struct it
// received is the one queued for the socket.
type forwarder struct {
	env  node.Env
	next proto.NodeID
}

func (f *forwarder) Start(env node.Env)                      { f.env = env }
func (f *forwarder) Stop()                                   {}
func (f *forwarder) Receive(_ proto.NodeID, m proto.Message) { f.env.Send(f.next, m) }

// A handler that is no Forgetter may send on what it received: a runs
// every kind through b, which forwards it to c, round after round, and
// c gets each message whole. Recycling b's structs would clear or poison
// them while they wait in b's send queue.
func TestForwardedMessagesArriveIntact(t *testing.T) {
	a, b, c := &recorder{}, &forwarder{next: "c"}, &recorder{}
	var rts [3]*Runtime
	for i, h := range []node.Handler{a, b, c} {
		r, err := Start(Config{ID: proto.NodeID(rune('a' + i)), ListenAddr: "127.0.0.1:0", Handler: h, Logf: quietLogf})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		rts[i] = r
	}
	rts[0].SetPeer("b", rts[1].Addr())
	rts[1].SetPeer("c", rts[2].Addr())

	msgs := wireSampleMessages()
	const rounds = 20
	for round := 1; round <= rounds; round++ {
		rts[0].Do(func() {
			for _, m := range msgs {
				a.env.Send("b", m)
			}
		})
		if !waitFor(t, 10*time.Second, func() bool { return c.count() == round*len(msgs) }) {
			t.Fatalf("round %d: %d of %d messages forwarded", round, c.count(), round*len(msgs))
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, got := range c.seen {
		if want := msgs[i%len(msgs)]; c.from[i] != "b" || !reflect.DeepEqual(got, want) {
			t.Fatalf("forwarded message %d (%s) from %s: got %#v", i, want.Kind(), c.from[i], got)
		}
	}
}

// sentLog records, for each struct the recycle hook is handed, how many
// envelopes its runtime had written or dropped by then.
type sentLog struct {
	mu      sync.Mutex
	msgs    []proto.Message
	settled []uint64
	runtime *Runtime
	base    uint64 // the runtime's envelopes written or dropped at the reset
}

func (l *sentLog) hook(m proto.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n uint64
	if l.runtime != nil {
		st := l.runtime.TransportStats()
		n = st.Sent + st.Dropped - l.base
	}
	l.msgs = append(l.msgs, m)
	l.settled = append(l.settled, n)
}

func (l *sentLog) snapshot() ([]proto.Message, []uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.msgs), slices.Clone(l.settled)
}

// handsBackOnce fails unless the hook was handed each of sent exactly
// once and nothing else, each only once its envelope — the i-th its
// runtime sent since the reset — was written or dropped.
func (l *sentLog) handsBackOnce(t *testing.T, sent []proto.Message) {
	t.Helper()
	if !waitFor(t, 10*time.Second, func() bool { m, _ := l.snapshot(); return len(m) >= len(sent) }) {
		m, _ := l.snapshot()
		t.Fatalf("%d of %d sent structs handed back", len(m), len(sent))
	}
	time.Sleep(20 * time.Millisecond) // room for a second give-back to show
	got, settled := l.snapshot()
	if len(got) != len(sent) {
		t.Fatalf("%d structs handed back for %d sent", len(got), len(sent))
	}
	for i, m := range sent {
		at := slices.Index(got, m)
		if at < 0 {
			t.Fatalf("sent message %d (%s) never handed back", i, m.Kind())
		}
		if settled[at] < uint64(i+1) {
			t.Fatalf("sent message %d (%s) handed back with %d envelopes written or dropped: before its batch left",
				i, m.Kind(), settled[at])
		}
	}
}

// A Forgetter's sends come back too: each struct reaches recycle once,
// once the batch that carried it is written — or dropped, for a peer no
// dial reaches or one the directory does not name, or lost to overflow.
// A handler that is no Forgetter keeps every struct it sends.
func TestForgetterHandsBackWhatItSends(t *testing.T) {
	var log sentLog
	t.Cleanup(func() { recycle = proto.ReleaseMessage })
	recycle = log.hook // recorded, not reused

	start := func(id proto.NodeID, h node.Handler) *Runtime {
		r, err := Start(Config{ID: id, ListenAddr: "127.0.0.1:0", Handler: h, Logf: quietLogf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r
	}
	reset := func(r *Runtime) {
		log.mu.Lock()
		log.msgs, log.settled, log.runtime, log.base = nil, nil, r, 0
		if r != nil {
			st := r.TransportStats()
			log.base = st.Sent + st.Dropped
		}
		log.mu.Unlock()
	}

	t.Run("written", func(t *testing.T) {
		f, rec := &forgetful{log: &eventLog{}}, &recorder{}
		rf, rr := start("f", f), start("r", rec)
		rf.SetPeer("r", rr.Addr())
		reset(rf)
		sent := wireSampleMessages()
		rf.Do(func() {
			for _, m := range sent {
				f.env.Send("r", m)
			}
		})
		if !waitFor(t, 10*time.Second, func() bool { return rec.count() == len(sent) }) {
			t.Fatalf("%d of %d messages arrived", rec.count(), len(sent))
		}
		log.handsBackOnce(t, sent)
		if st := rf.TransportStats(); st.Sent != uint64(len(sent)) || st.Dropped != 0 {
			t.Fatalf("transport: %+v", st)
		}
	})

	t.Run("unreachable", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		gone := ln.Addr().String()
		ln.Close() // nothing listens there now: every dial fails
		f := &forgetful{log: &eventLog{}}
		rf := start("f", f)
		rf.SetPeer("gone", gone)
		// "nobody" has no address: its envelopes are dropped at the send.
		for round, to := range []proto.NodeID{"gone", "nobody"} {
			reset(rf)
			sent := wireSampleMessages()
			rf.Do(func() {
				for _, m := range sent {
					f.env.Send(to, m)
				}
			})
			log.handsBackOnce(t, sent)
			if st := rf.TransportStats(); st.Sent != 0 || st.Dropped != uint64((round+1)*len(sent)) {
				t.Fatalf("to %s: transport %+v", to, st)
			}
		}
	})

	t.Run("overflow", func(t *testing.T) {
		// A sender whose goroutine never runs, so the queue fills: the
		// oldest envelope goes back when the next pushes it out, the rest
		// when their batch comes back done.
		r := &Runtime{cfg: Config{QueueDepth: 2}, loop: loop{forgets: true}}
		s := &sender{rt: r, to: "peer", wake: make(chan struct{}, 1)}
		reset(nil)
		sent := wireSampleMessages()[:3]
		for _, m := range sent {
			s.enqueue(m)
		}
		if got, _ := log.snapshot(); len(got) != 1 || got[0] != sent[0] {
			t.Fatalf("after the overflow, handed back %v; want the oldest envelope alone", got)
		}
		batch := s.drain(nil)
		if got, _ := log.snapshot(); len(batch) != 2 || len(got) != 1 {
			t.Fatalf("drained %d envelopes and handed back %d; want 2 out and none back until they are done", len(batch), len(got))
		}
		if s.drain(batch) != nil {
			t.Fatal("a second batch from an empty queue")
		}
		if got, _ := log.snapshot(); !slices.Equal(got, sent) {
			t.Fatalf("handed back %v, want %v", got, sent)
		}
	})

	t.Run("no Forgetter", func(t *testing.T) {
		a, rec := &recorder{}, &recorder{}
		ra, rr := start("a", a), start("r", rec)
		ra.SetPeer("r", rr.Addr())
		reset(ra)
		// The second round is queued once the first has arrived, so it
		// leaves in a batch of its own, and the first batch is done with
		// by the time the second arrives.
		sent := wireSampleMessages()
		for round, msgs := range [][]proto.Message{sent, wireSampleMessages()} {
			ra.Do(func() {
				for _, m := range msgs {
					a.env.Send("r", m)
				}
			})
			if !waitFor(t, 10*time.Second, func() bool { return rec.count() == (round+1)*len(sent) }) {
				t.Fatalf("round %d: %d of %d messages arrived", round, rec.count(), (round+1)*len(sent))
			}
		}
		if got, _ := log.snapshot(); len(got) != 0 {
			t.Fatalf("a handler that is no Forgetter had %d sent structs handed back", len(got))
		}
		for i, want := range wireSampleMessages() {
			if !reflect.DeepEqual(sent[i], want) {
				t.Errorf("sent message %d (%s) is %#v now", i, want.Kind(), sent[i])
			}
		}
	})
}

// fakeCoord plays the coordinator for one server: it answers the
// server's syncs, assigns it one task, asks for that task's result once
// more (a ServerSyncReply's Resend) some time after the first upload
// arrived, and acknowledges the second. It records a copy of every
// result, and is a Forgetter, like the coordinator: each struct it
// receives goes back to the pool, where the server's sent structs go.
// A struct the server sent and still kept would then be given back
// twice over — by the server's runtime once sent, by this one once
// received into — and poisoned or zeroed where the server reads it.
type fakeCoord struct {
	env     node.Env
	task    proto.TaskID
	mu      sync.Mutex
	results []proto.TaskResult
	given   bool
}

func (f *fakeCoord) Start(env node.Env) { f.env = env }
func (f *fakeCoord) Stop()              {}
func (f *fakeCoord) ForgetsMessages()   {}
func (f *fakeCoord) Receive(from proto.NodeID, m proto.Message) {
	switch m := m.(type) {
	case *proto.ServerSync:
		f.env.Send(from, &proto.ServerSyncReply{})
	case *proto.Heartbeat:
		if m.WantWork && !f.given {
			f.given = true
			f.env.Send(from, &proto.HeartbeatAck{From: "co", Coordinators: []proto.NodeID{"co"},
				Tasks: []proto.TaskAssignment{{Task: f.task, Service: "upper", Params: []byte("hi")}}})
		}
	case *proto.TaskResult:
		f.mu.Lock()
		f.results = append(f.results, *m)
		n := len(f.results)
		f.mu.Unlock()
		if n == 1 {
			// Long enough for the first upload's batch to be done with.
			f.env.After(50*time.Millisecond, func() {
				f.env.Send(from, &proto.ServerSyncReply{Resend: []proto.TaskID{f.task}})
			})
		} else {
			f.env.Send(from, &proto.TaskResultAck{Task: f.task})
		}
	}
}

func (f *fakeCoord) received() []proto.TaskResult {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.results)
}

// The handlers keep to their promise over real sockets, where what they
// send is given back (and, in race builds, poisoned) once it has left: a
// server's result kept for a resend goes out as a copy each time, so
// the resend carries the result and not a recycled struct; a
// coordinator's ring beat to two successors is two structs, each given
// back once.
func TestHandlersSendEachStructOnce(t *testing.T) {
	start := func(id proto.NodeID, h node.Handler) *Runtime {
		r, err := Start(Config{ID: id, ListenAddr: "127.0.0.1:0", Handler: h, Logf: quietLogf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r
	}

	t.Run("server resend", func(t *testing.T) {
		co := &fakeCoord{task: proto.TaskID{Call: proto.CallID{User: "u", Session: 1, Seq: 1}, Instance: 1}}
		sv := server.New(server.Config{
			Coordinators:    []proto.NodeID{"co"},
			HeartbeatPeriod: 20 * time.Millisecond,
			Services: map[string]server.Service{
				"upper": func(p []byte) ([]byte, error) { return bytes.ToUpper(p), nil },
			},
		})
		rco, rsv := start("co", co), start("sv", sv)
		rco.SetPeer("sv", rsv.Addr())
		rsv.SetPeer("co", rco.Addr())
		if !waitFor(t, 10*time.Second, func() bool { return len(co.received()) >= 2 }) {
			t.Fatalf("%d of 2 uploads arrived", len(co.received()))
		}
		for i, res := range co.received()[:2] {
			if res.From != "sv" || res.Task != co.task || string(res.Output) != "HI" || res.Err != "" {
				t.Fatalf("upload %d: %#v; want the server's result for %v", i, res, co.task)
			}
		}
	})

	t.Run("ring beat", func(t *testing.T) {
		// co-b, the raw successor, falls silent and is suspected: co-a
		// beats it and co-c, the effective successor, every period.
		a := coordinator.New(coordinator.Config{
			Coordinators:      []proto.NodeID{"co-a", "co-b", "co-c"},
			HeartbeatPeriod:   5 * time.Millisecond,
			HeartbeatTimeout:  100 * time.Millisecond,
			ReplicationPeriod: time.Hour,
		})
		b, c := &recorder{}, &recorder{}
		ra, rb, rc := start("co-a", a), start("co-b", b), start("co-c", c)
		ra.SetPeer("co-b", rb.Addr())
		ra.SetPeer("co-c", rc.Addr())
		rb.SetPeer("co-a", ra.Addr())
		rb.Do(func() { b.env.Send("co-a", &proto.Heartbeat{From: "co-b", Role: proto.RoleCoordinator}) })
		beats := func(r *recorder) (n int) {
			r.mu.Lock()
			defer r.mu.Unlock()
			for i, m := range r.seen {
				hb, ok := m.(*proto.Heartbeat)
				if !ok {
					continue
				}
				if hb.From != "co-a" || hb.Role != proto.RoleCoordinator || r.from[i] != "co-a" {
					t.Fatalf("beat %d from %s: %#v", i, r.from[i], hb)
				}
				n++
			}
			return n
		}
		if !waitFor(t, 10*time.Second, func() bool { return beats(c) >= 40 }) {
			t.Fatalf("co-c, the effective successor, got %d beats", beats(c))
		}
		if n := beats(b); n < 40 {
			t.Fatalf("co-b, the raw successor, got %d beats", n)
		}
	})
}

// A message's lists go back with its struct (proto.ReleaseMessage), and
// the next message of its kind is read into, or built in, their arrays:
// so a Forgetter keeps no list it received, by slice or by element
// address, and sends no list that is its own state. Here the
// coordinator, a server and a client run on TCP as Forgetters, ten echo
// calls at once, and each keeps what such a slip would clear — or, in
// race builds, poison: the client the results it holds above its
// watermark (copied out of the Results list that brought them), the
// server the tasks its bodies run off the loop (copied out of the
// HeartbeatAck's Tasks) and the coordinator list it merged (the
// coordinator's own, which no HeartbeatAck may keep). The client polls
// once a second, so the results arrive in one Results message and stay
// for a poll after.
func TestListsGoBackWithTheirMessages(t *testing.T) {
	const calls = 10
	co := coordinator.New(coordinator.Config{Coordinators: []proto.NodeID{"co"},
		HeartbeatPeriod: 20 * time.Millisecond, HeartbeatTimeout: 10 * time.Second})
	sv := server.New(server.Config{Coordinators: []proto.NodeID{"co"}, HeartbeatPeriod: 20 * time.Millisecond,
		SuspicionTimeout: 10 * time.Second, Parallelism: 4, Services: map[string]server.Service{
			"echo": func(p []byte) ([]byte, error) { return slices.Clone(p), nil },
		}})
	var mu sync.Mutex
	var got []proto.Result
	cl := client.New(client.Config{User: "u", Session: 1, Coordinators: []proto.NodeID{"co"},
		PollPeriod: time.Second, SuspicionTimeout: 10 * time.Second,
		OnResult: func(res proto.Result, _ time.Time) {
			mu.Lock()
			got = append(got, res)
			mu.Unlock()
		}})
	ids := []proto.NodeID{"co", "sv", "client-u-1"}
	var rts []*Runtime
	for i, h := range []node.Handler{co, sv, cl} {
		r, err := Start(Config{ID: ids[i], ListenAddr: "127.0.0.1:0", Handler: h, Logf: quietLogf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		rts = append(rts, r)
	}
	for _, r := range rts {
		for i, id := range ids {
			r.SetPeer(id, rts[i].Addr())
		}
	}
	params := func(seq proto.RPCSeq) []byte { return []byte(fmt.Sprintf("params of call %d", seq)) }
	rts[2].Do(func() {
		for seq := proto.RPCSeq(1); seq <= calls; seq++ {
			if got := cl.Submit("echo", params(seq), 0, 0); got != seq {
				t.Errorf("call numbered %d, want %d", got, seq)
			}
		}
	})
	if !waitFor(t, 10*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == calls }) {
		t.Fatalf("%d of %d results", len(got), calls)
	}
	rts[2].Do(func() {
		for seq := proto.RPCSeq(1); seq <= calls; seq++ {
			res, ok := cl.Result(seq)
			if !ok || string(res.Output) != string(params(seq)) || res.Err != "" || res.Server != "sv" {
				t.Errorf("the client holds call %d's result as %q (err %q, from %q), held %v", seq, res.Output, res.Err, res.Server, ok)
			}
		}
	})
	mu.Lock()
	for _, res := range got {
		if string(res.Output) != string(params(res.Call.Seq)) || res.Err != "" {
			t.Errorf("call %d: result %q (err %q)", res.Call.Seq, res.Output, res.Err)
		}
	}
	mu.Unlock()
	// Ten envelopes more from the coordinator, nearly all of them the
	// HeartbeatAcks that answer the server's beats with its member list.
	sent := rts[0].TransportStats().Sent
	if !waitFor(t, 10*time.Second, func() bool { return rts[0].TransportStats().Sent >= sent+10 }) {
		t.Fatal("the coordinator went quiet")
	}
	rts[1].Do(func() {
		if coords := sv.Coordinators(); !slices.Equal(coords, []proto.NodeID{"co"}) {
			t.Errorf("the server's coordinator list is %q", coords)
		}
	})
}
