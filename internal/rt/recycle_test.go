package rt

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/proto"
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
// of the kind then fills that struct instead of allocating one.
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
	rb.Do(func() {
		for _, m := range msgs {
			b.env.Send("a", m)
		}
	})
	if !waitFor(t, 10*time.Second, func() bool { return len(log.snapshot()) == 2*len(msgs) && a.count() == len(msgs) }) {
		t.Fatalf("%d events at the forgetful handler and %d messages at the recorder, want %d and %d",
			len(log.snapshot()), a.count(), 2*len(msgs), len(msgs))
	}
	events := log.snapshot()
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
	for i, want := range msgs {
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
