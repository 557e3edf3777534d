package rt

import (
	"net"
	"runtime"
	"testing"
	"time"

	"rpcv/internal/obs"
	"rpcv/internal/proto"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// TestPooledDeliveryAndCoalescing sends a burst through the transport:
// every message must arrive, and the burst must ride far fewer
// connection flushes than messages.
func TestPooledDeliveryAndCoalescing(t *testing.T) {
	const burst = 64
	a := &echo{}
	b := &echo{}
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

	ra.Do(func() {
		for i := 0; i < burst; i++ {
			a.env.Send("b", &proto.Poll{User: "u", Session: 1})
		}
	})
	if !waitFor(t, 5*time.Second, func() bool { return b.count() == burst }) {
		t.Fatalf("delivered %d/%d messages", b.count(), burst)
	}
	st := ra.TransportStats()
	if st.Sent != burst || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want %d sent, 0 dropped", st, burst)
	}
	if st.Flushes >= st.Sent {
		t.Fatalf("no coalescing: %d flushes for %d envelopes", st.Flushes, st.Sent)
	}
}

// TestSendQueueBoundedNoGoroutineLeak floods a sender whose peer is
// unreachable: the transport must keep a single sender goroutine — not
// one per message, each holding a dial for up to dialTimeout — and
// bound the queue by dropping the oldest envelopes.
func TestSendQueueBoundedNoGoroutineLeak(t *testing.T) {
	const flood = 500
	a := &echo{}
	ra, err := Start(Config{
		ID: "a", Handler: a, Logf: quietLogf,
		QueueDepth: 8,
		// A bound-but-unserved port: dials fail fast with refused.
		Directory: Directory{"ghost": "127.0.0.1:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	before := runtime.NumGoroutine()
	ra.Do(func() {
		for i := 0; i < flood; i++ {
			a.env.Send("ghost", &proto.Heartbeat{From: "a"})
		}
	})
	if after := runtime.NumGoroutine(); after > before+20 {
		t.Fatalf("goroutines grew %d -> %d during flood (per-message spawn?)", before, after)
	}
	// Every envelope is eventually dropped (overflow or failed dial),
	// none can be in flight, and the queue stays at depth.
	if !waitFor(t, 5*time.Second, func() bool {
		st := ra.TransportStats()
		return st.Dropped+8 >= flood
	}) {
		t.Fatalf("dropped = %d, want >= %d", ra.TransportStats().Dropped, flood-8)
	}
	if st := ra.TransportStats(); st.Sent != 0 {
		t.Fatalf("sent %d envelopes to an unreachable peer", st.Sent)
	}
}

// TestSenderRedialsOnItsNextBatch: a failed dial costs its batch and
// nothing else — the sender does not wait before the next batch dials
// again, however many dials failed before it, so a peer back at its
// address is reached by the next message the protocol sends it.
func TestSenderRedialsOnItsNextBatch(t *testing.T) {
	const failures = 6
	a, b := &echo{}, &echo{}
	ra, err := Start(Config{
		ID: "a", Handler: a, Logf: quietLogf, Obs: obs.New("a"),
		// A bound-but-unserved port: dials fail fast with refused.
		Directory: Directory{"b": "127.0.0.1:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	rb, err := Start(Config{ID: "b", ListenAddr: "127.0.0.1:0", Handler: b, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	send := func(i int) { ra.Do(func() { a.env.Send("b", &proto.Poll{User: "u", Session: proto.SessionID(i)}) }) }
	for i := 1; i <= failures; i++ {
		send(i)
		if !waitFor(t, 5*time.Second, func() bool { return ra.TransportStats().Dropped == uint64(i) }) {
			t.Fatalf("send %d: stats = %+v, want its envelope dropped", i, ra.TransportStats())
		}
	}
	if n := dropsBy(t, ra)["unreachable"]; n != failures {
		t.Fatalf("dropped{reason=unreachable} = %v, want %d", n, failures)
	}
	if st := ra.TransportStats(); st.Redials != failures-1 {
		t.Fatalf("redials = %d, want %d: one dial per batch", st.Redials, failures-1)
	}

	ra.SetPeer("b", rb.Addr())
	send(failures + 1)
	if !waitFor(t, 300*time.Millisecond, func() bool { return b.count() == 1 }) {
		t.Fatal("the peer, back at its address, was not reached within 300 ms of the next send")
	}
}

// TestIdleTimeoutRetiresSenderAndRevives checks the pool returns to
// the paper's connection-less behaviour for quiet peers: after
// IdleTimeout the sender goroutine and its connection go away, and a
// later send transparently builds fresh ones.
func TestIdleTimeoutRetiresSenderAndRevives(t *testing.T) {
	a := &echo{}
	b := &echo{}
	ra, err := Start(Config{ID: "a", Handler: a, Logf: quietLogf, IdleTimeout: 80 * time.Millisecond})
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

	senderCount := func() int {
		ra.sendMu.Lock()
		defer ra.sendMu.Unlock()
		return len(ra.senders)
	}

	ra.Do(func() { a.env.Send("b", &proto.Poll{User: "u", Session: 1}) })
	if !waitFor(t, 2*time.Second, func() bool { return b.count() == 1 }) {
		t.Fatal("first message never arrived")
	}
	if senderCount() != 1 {
		t.Fatalf("senders = %d, want 1", senderCount())
	}
	if !waitFor(t, 2*time.Second, func() bool { return senderCount() == 0 }) {
		t.Fatal("idle sender never retired")
	}
	ra.Do(func() { a.env.Send("b", &proto.Poll{User: "u", Session: 2}) })
	if !waitFor(t, 2*time.Second, func() bool { return b.count() == 2 }) {
		t.Fatal("send after idle retirement never arrived")
	}
}

// TestSenderRetiresOnlyAfterIdleTimeoutOfSilence keeps a peer busy for
// several IdleTimeouts: its sender, whose idle timer is armed once per
// timeout rather than per batch, must stay, and retire no sooner than
// IdleTimeout after the last batch.
func TestSenderRetiresOnlyAfterIdleTimeoutOfSilence(t *testing.T) {
	const idle = 100 * time.Millisecond
	a := &echo{}
	b := &echo{}
	ra, err := Start(Config{ID: "a", Handler: a, Logf: quietLogf, IdleTimeout: idle})
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
	current := func() *sender {
		ra.sendMu.Lock()
		defer ra.sendMu.Unlock()
		return ra.senders["b"]
	}

	var first *sender
	var last time.Time
	for i := 1; i <= 12; i++ {
		last = time.Now() // the batch that carries it is later
		ra.Do(func() { a.env.Send("b", &proto.Poll{User: "u", Session: proto.SessionID(i)}) })
		if !waitFor(t, 2*time.Second, func() bool { return b.count() == i }) {
			t.Fatalf("message %d never arrived", i)
		}
		switch s := current(); {
		case first == nil:
			first = s
		case s != first:
			t.Fatalf("the sender retired after message %d, sent well within IdleTimeout of the one before", i)
		}
		time.Sleep(idle / 3)
	}
	if !waitFor(t, 2*time.Second, func() bool { return current() == nil }) {
		t.Fatal("idle sender never retired")
	}
	if quiet := time.Since(last); quiet < idle {
		t.Fatalf("the sender retired %v after the last batch, before IdleTimeout (%v)", quiet, idle)
	}
}

// TestSetPeerRedirectsLiveSender checks a pooled sender follows
// directory updates: after SetPeer moves a peer, traffic must land at
// the new endpoint even though the connection to the old one is still
// perfectly alive (a live-but-wrong connection must not pin messages to
// a stale address).
func TestSetPeerRedirectsLiveSender(t *testing.T) {
	a := &echo{}
	old := &echo{}
	cur := &echo{}
	ra, err := Start(Config{ID: "a", Handler: a, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	rOld, err := Start(Config{ID: "b", ListenAddr: "127.0.0.1:0", Handler: old, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rOld.Close()
	rCur, err := Start(Config{ID: "b", ListenAddr: "127.0.0.1:0", Handler: cur, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rCur.Close()

	ra.SetPeer("b", rOld.Addr())
	ra.Do(func() { a.env.Send("b", &proto.Poll{User: "u", Session: 1}) })
	if !waitFor(t, 5*time.Second, func() bool { return old.count() == 1 }) {
		t.Fatal("message never reached the original endpoint")
	}
	ra.SetPeer("b", rCur.Addr())
	ra.Do(func() { a.env.Send("b", &proto.Poll{User: "u", Session: 2}) })
	if !waitFor(t, 5*time.Second, func() bool { return cur.count() == 1 }) {
		t.Fatalf("message pinned to the stale endpoint (old=%d cur=%d)", old.count(), cur.count())
	}
}

// oversized is a message whose frame exceeds proto.MaxFrame.
func oversized() proto.Message {
	return &proto.Submit{Call: proto.CallID{User: "u", Session: 1, Seq: 99},
		Params: make([]byte, proto.MaxFrame+1)}
}

// TestOversizedBatchSendsAndCountsNothing: a batch in which every
// message is over the frame cap used to write an empty buffer, flush,
// and count a flush that carried nothing plus a zero in the batch-size
// histogram. It must count only the drop — and leave the connection,
// preface still unsent, good for the next message.
func TestOversizedBatchSendsAndCountsNothing(t *testing.T) {
	a, b := &echo{}, &echo{}
	ra, err := Start(Config{ID: "a", Handler: a, Logf: quietLogf, Obs: obs.New("a")})
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

	ra.Do(func() { a.env.Send("b", oversized()) })
	if !waitFor(t, 10*time.Second, func() bool { return ra.TransportStats().Dropped == 1 }) {
		t.Fatalf("stats = %+v, want the oversized message dropped", ra.TransportStats())
	}
	if st := ra.TransportStats(); st.Sent != 0 || st.Flushes != 0 {
		t.Fatalf("stats = %+v: a batch that framed nothing was counted as sent or flushed", st)
	}
	if n := ra.obsBatch.Snapshot().N; n != 0 {
		t.Fatalf("batch-size histogram holds %d observation(s) of a batch that sent nothing", n)
	}

	ra.Do(func() { a.env.Send("b", &proto.Poll{User: "u", Session: 1}) })
	if !waitFor(t, 5*time.Second, func() bool { return b.count() == 1 }) {
		t.Fatal("a message after the dropped one never arrived")
	}
	// The sender counts a flush after it returns and the receiver may
	// deliver before that: wait for the last thing it counts.
	if !waitFor(t, 5*time.Second, func() bool { return ra.obsBatch.Snapshot().N > 0 }) {
		t.Fatalf("stats = %+v: the flush that delivered was never counted", ra.TransportStats())
	}
	if st := ra.TransportStats(); st.Sent != 1 || st.Flushes != 1 || st.Dropped != 1 || st.Redials != 0 {
		t.Fatalf("stats = %+v, want 1 sent in 1 flush on the first connection", st)
	}
	if h := ra.obsBatch.Snapshot(); h.N != 1 || h.Min != 1 {
		t.Fatalf("batch-size histogram = %+v, want the one batch of one", h)
	}
}

// TestOversizedMessageCostsOnlyItself: queued between two small
// messages, the oversized one is dropped alone — both neighbours arrive,
// in order, over a connection that is never torn down.
func TestOversizedMessageCostsOnlyItself(t *testing.T) {
	a, b := &echo{}, &echo{}
	ra, err := Start(Config{ID: "a", Handler: a, Logf: quietLogf})
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

	big := oversized()
	ra.Do(func() {
		a.env.Send("b", &proto.Poll{User: "u", Session: 1})
		a.env.Send("b", big)
		a.env.Send("b", &proto.Poll{User: "u", Session: 2})
	})
	if !waitFor(t, 10*time.Second, func() bool { return b.count() == 2 }) {
		t.Fatalf("delivered %d/2 small messages around the oversized one", b.count())
	}
	b.mu.Lock()
	first, second := b.seen[0].(*proto.Poll), b.seen[1].(*proto.Poll)
	b.mu.Unlock()
	if first.Session != 1 || second.Session != 2 {
		t.Fatalf("small messages arrived as sessions %d, %d; want 1, 2", first.Session, second.Session)
	}
	if !waitFor(t, 5*time.Second, func() bool { return ra.TransportStats().Sent == 2 }) { // counted after the flush returns
		t.Fatalf("stats = %+v, want 2 sent", ra.TransportStats())
	}
	if st := ra.TransportStats(); st.Dropped != 1 || st.Redials != 0 {
		t.Fatalf("stats = %+v, want 2 sent, 1 dropped, no redial", st)
	}
	if n := rb.inbound.Load(); n != 1 {
		t.Fatalf("receiver holds %d inbound connections, want the one the sender opened", n)
	}
}

// dropsBy reads rpcv_transport_dropped_total{reason} off r's registry
// and checks that TransportStats.Dropped is the sum of its series.
func dropsBy(t *testing.T, r *Runtime) map[string]float64 {
	t.Helper()
	out, sum := map[string]float64{}, 0.0
	for _, name := range dropReasonNames {
		v, ok := r.cfg.Obs.Registry().Value("rpcv_transport_dropped_total", obs.L("node", string(r.cfg.ID)), obs.L("reason", name))
		if !ok {
			t.Fatalf("rpcv_transport_dropped_total{reason=%q} is not registered", name)
		}
		out[name] = v
		sum += v
	}
	if d := r.TransportStats().Dropped; float64(d) != sum {
		t.Fatalf("TransportStats.Dropped = %d, the reason series sum to %v", d, sum)
	}
	return out
}

// TestDropsAreCountedByReason: each way the transport loses an envelope
// locally has a series of its own, and only that one moves.
func TestDropsAreCountedByReason(t *testing.T) {
	// only checks that the named reason, and no other, counted n drops.
	only := func(t *testing.T, r *Runtime, reason string, n float64) {
		t.Helper()
		for name, v := range dropsBy(t, r) {
			want := 0.0
			if name == reason {
				want = n
			}
			if v != want {
				t.Errorf("dropped{reason=%q} = %v, want %v", name, v, want)
			}
		}
	}
	start := func(t *testing.T, cfg Config) *Runtime {
		t.Helper()
		cfg.ID, cfg.Handler, cfg.Logf, cfg.Obs = "a", &echo{}, quietLogf, obs.New("a")
		r, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r
	}

	t.Run("overflow", func(t *testing.T) {
		r := start(t, Config{QueueDepth: 4})
		// A sender with no goroutine behind it: nothing drains the queue.
		s := &sender{rt: r, to: "b", wake: make(chan struct{}, 1)}
		for i := 0; i < 7; i++ {
			s.enqueue(&proto.Poll{User: "u", Session: proto.SessionID(i)})
		}
		only(t, r, "overflow", 3)
		if first := s.queue[0].(*proto.Poll).Session; len(s.queue) != 4 || first != 3 {
			t.Fatalf("queue holds %d envelopes from session %d, want the newest 4 from 3", len(s.queue), first)
		}
	})

	t.Run("unreachable", func(t *testing.T) {
		// A bound-but-unserved port: the dial is refused.
		r := start(t, Config{Directory: Directory{"ghost": "127.0.0.1:1"}})
		r.Do(func() { r.loop.env.Send("ghost", &proto.Poll{User: "u", Session: 1}) })
		if !waitFor(t, 5*time.Second, func() bool { return r.TransportStats().Dropped == 1 }) {
			t.Fatalf("stats = %+v, want the envelope dropped", r.TransportStats())
		}
		only(t, r, "unreachable", 1)
	})

	t.Run("no address", func(t *testing.T) {
		// A peer missing from the directory: dropped at the send itself,
		// with no sender started for it.
		r := start(t, Config{})
		r.Do(func() { r.loop.env.Send("ghost", &proto.Poll{User: "u", Session: 1}) })
		only(t, r, "unreachable", 1)
		r.sendMu.Lock()
		defer r.sendMu.Unlock()
		if len(r.senders) != 0 {
			t.Fatalf("%d senders started for a peer with no address", len(r.senders))
		}
	})

	t.Run("broken", func(t *testing.T) {
		// A peer that reads the first envelope and resets the connection:
		// the next write finds it broken.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		reset := make(chan struct{})
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = c.Read(make([]byte, 64))
			_ = c.(*net.TCPConn).SetLinger(0)
			c.Close()
			close(reset)
		}()
		r := start(t, Config{Directory: Directory{"b": ln.Addr().String()}})
		send := func() { r.Do(func() { r.loop.env.Send("b", &proto.Poll{User: "u", Session: 1}) }) }
		send()
		<-reset
		time.Sleep(50 * time.Millisecond) // the reset reaches the sender's socket
		send()
		if !waitFor(t, 5*time.Second, func() bool { return r.TransportStats().Dropped == 1 }) {
			t.Fatalf("stats = %+v, want the envelope after the reset dropped", r.TransportStats())
		}
		only(t, r, "broken", 1)
	})

	t.Run("oversize", func(t *testing.T) {
		b := &echo{}
		rb, err := Start(Config{ID: "b", ListenAddr: "127.0.0.1:0", Handler: b, Logf: quietLogf})
		if err != nil {
			t.Fatal(err)
		}
		defer rb.Close()
		r := start(t, Config{Directory: Directory{"b": rb.Addr()}})
		r.Do(func() { r.loop.env.Send("b", oversized()) })
		if !waitFor(t, 10*time.Second, func() bool { return r.TransportStats().Dropped == 1 }) {
			t.Fatalf("stats = %+v, want the oversized message dropped", r.TransportStats())
		}
		only(t, r, "oversize", 1)
	})
}

// TestInboundWithoutPrefaceIsClosedUndelivered dials a live runtime over
// raw TCP with everything that is not this protocol — garbage, a
// preface cut short, a preface of another version, bytes that open like
// a gob stream — followed each time by what would be a valid frame.
// Every such connection is closed without a delivery, the accept loop
// keeps serving, and a proper connection opened afterwards delivers.
func TestInboundWithoutPrefaceIsClosedUndelivered(t *testing.T) {
	b := &echo{}
	rb, err := Start(Config{ID: "b", ListenAddr: "127.0.0.1:0", Handler: b, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	frame, err := proto.AppendFrame(nil, "raw", &proto.Poll{User: "u", Session: 9})
	if err != nil {
		t.Fatal(err)
	}
	magic, version := proto.FramePreface[0], proto.FramePreface[1]
	streams := map[string][]byte{
		"garbage":           append([]byte("GET / HTTP/1.1\r\n\r\n"), frame...),
		"lone magic":        {magic}, // a preface torn by the peer going away
		"wrong version":     append([]byte{magic, version + 1}, frame...),
		"version 1":         append([]byte{magic, 1}, frame...), // an older build's peer
		"gob-like stream":   append([]byte{0x2c, 0xff, 0x81, 0x03, 0x01, 0x01, 0x08, 'e', 'n', 'v', 'e', 'l', 'o', 'p', 'e'}, frame...),
		"frame, no preface": frame,
	}
	for name, stream := range streams {
		conn, err := net.Dial("tcp", rb.Addr())
		if err != nil {
			t.Fatalf("%s: the accept loop stopped serving: %v", name, err)
		}
		_, _ = conn.Write(stream) // the runtime may close on us before the last byte
		_ = conn.(*net.TCPConn).CloseWrite()
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err == nil || n != 0 {
			t.Errorf("%s: read %d bytes, err %v; want the connection closed on us", name, n, err)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Errorf("%s: the connection was left open", name)
		}
		conn.Close()
	}
	if !waitFor(t, 5*time.Second, func() bool { return rb.inbound.Load() == 0 }) {
		t.Fatalf("%d refused connections are still held", rb.inbound.Load())
	}
	if n := b.count(); n != 0 {
		t.Fatalf("%d message(s) delivered from connections without a valid preface", n)
	}

	// The same frame behind a preface, and through a real sender.
	conn, err := net.Dial("tcp", rb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(append(proto.FramePreface[:], frame...)); err != nil {
		t.Fatal(err)
	}
	a := &echo{}
	ra, err := Start(Config{ID: "a", Handler: a, Logf: quietLogf, Directory: Directory{"b": rb.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	ra.Do(func() { a.env.Send("b", &proto.Poll{User: "u", Session: 1}) })
	if !waitFor(t, 5*time.Second, func() bool { return b.count() == 2 }) {
		t.Fatalf("delivered %d/2 messages over proper connections after the refused ones", b.count())
	}
}

// TestMaxInboundConnsSheds verifies accept-side shedding: connections
// beyond the cap are closed immediately and counted, instead of each
// holding a file descriptor until a read deadline expires.
func TestMaxInboundConnsSheds(t *testing.T) {
	b := &echo{}
	rb, err := Start(Config{ID: "b", ListenAddr: "127.0.0.1:0", Handler: b, Logf: quietLogf,
		MaxInboundConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	var held []net.Conn
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", rb.Addr())
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, c)
	}
	// The two slow conns must be registered before the third arrives.
	if !waitFor(t, 2*time.Second, func() bool { return rb.inbound.Load() == 2 }) {
		t.Fatalf("inbound = %d, want 2", rb.inbound.Load())
	}

	over, err := net.Dial("tcp", rb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	_ = over.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := over.Read(make([]byte, 1)); err == nil {
		t.Fatal("over-cap connection was served")
	}
	if st := rb.TransportStats(); st.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", st.Sheds)
	}
}
