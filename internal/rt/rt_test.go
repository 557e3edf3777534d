package rt

import (
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/coordinator"
	"rpcv/internal/msglog"
	"rpcv/internal/node"
	"rpcv/internal/proto"
	"rpcv/internal/server"
)

// echo is a trivial handler replying to every message with the same
// message.
type echo struct {
	env  node.Env
	mu   sync.Mutex
	seen []proto.Message
}

func (e *echo) Start(env node.Env) { e.env = env }
func (e *echo) Stop()              {}
func (e *echo) Receive(from proto.NodeID, m proto.Message) {
	e.mu.Lock()
	e.seen = append(e.seen, m)
	e.mu.Unlock()
	if _, isHB := m.(*proto.Heartbeat); isHB {
		e.env.Send(from, &proto.HeartbeatAck{From: e.env.Self()})
	}
}

func (e *echo) count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.seen)
}

func quietLogf(string, ...any) {}

func TestMessageExchangeOverTCP(t *testing.T) {
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
	rb.SetPeer("a", ra.Addr())

	ra.Do(func() { a.env.Send("b", &proto.Heartbeat{From: "a", Role: proto.RoleServer}) })
	deadline := time.Now().Add(5 * time.Second)
	for b.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if b.count() == 0 {
		t.Fatal("message never arrived over TCP")
	}
	// The reply (HeartbeatAck) flows back.
	for a.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if a.count() == 0 {
		t.Fatal("reply never arrived")
	}
}

func TestSendToUnknownPeerDropped(t *testing.T) {
	a := &echo{}
	ra, err := Start(Config{ID: "a", ListenAddr: "127.0.0.1:0", Handler: a, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	// Must not panic or block.
	ra.Do(func() { a.env.Send("ghost", &proto.Heartbeat{From: "a"}) })
}

func TestTimers(t *testing.T) {
	a := &echo{}
	ra, err := Start(Config{ID: "a", Handler: a, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	fired := make(chan struct{})
	var cancelled bool
	ra.Do(func() {
		a.env.After(20*time.Millisecond, func() { close(fired) })
		tm := a.env.After(20*time.Millisecond, func() { cancelled = true })
		tm.Stop()
	})
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	time.Sleep(100 * time.Millisecond)
	ra.Do(func() {})
	if cancelled {
		t.Fatal("stopped timer fired")
	}
}

// TestLoopStatsCountTimers: LoopStats().Timers, read off the loop,
// follows After, Stop and firing.
func TestLoopStatsCountTimers(t *testing.T) {
	a := &echo{}
	r, err := Start(Config{ID: "a", Handler: a, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	timers := func() int { return r.LoopStats()[0].Timers }
	fired := make(chan struct{})
	var stopped node.Timer
	r.Do(func() {
		a.env.After(time.Hour, func() {})
		stopped = a.env.After(time.Hour, func() {})
		a.env.After(10*time.Millisecond, func() { close(fired) })
	})
	if got := timers(); got != 3 {
		t.Fatalf("after three After calls, Timers = %d, want 3", got)
	}
	r.Do(stopped.Stop)
	r.Do(stopped.Stop) // a second Stop removes nothing
	if got := timers(); got != 2 {
		t.Fatalf("after a Stop, Timers = %d, want 2", got)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
	if got := timers(); got != 1 {
		t.Fatalf("after one timer fired, Timers = %d, want 1", got)
	}
}

// TestTimersNeverFireEarly arms timers out of deadline order, stops the
// earliest, and keeps the mailbox busy meanwhile: the loop re-arms its
// runtime timer only when the earliest deadline moves, and every timer
// must still fire, none before its deadline and none stopped.
func TestTimersNeverFireEarly(t *testing.T) {
	a := &echo{}
	ra, err := Start(Config{ID: "a", Handler: a, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	type firing struct{ due, at time.Time }
	fired := make(chan firing, 16) // room for every timer: the loop never waits
	stopped := make(chan struct{}, 1)
	arm := func(d time.Duration) node.Timer {
		due := time.Now().Add(d)
		return a.env.After(d, func() {
			select {
			case fired <- firing{due, time.Now()}:
			default:
			}
		})
	}
	ra.Do(func() {
		arm(60 * time.Millisecond)
		arm(20 * time.Millisecond)
		arm(40 * time.Millisecond)
		a.env.After(10*time.Millisecond, func() {
			select {
			case stopped <- struct{}{}:
			default:
			}
		}).Stop()
		arm(20 * time.Millisecond)
	})
	for i := 0; i < 20; i++ { // mailbox entries that move no deadline
		ra.Do(func() {})
		time.Sleep(2 * time.Millisecond)
	}
	ra.Do(func() { arm(5 * time.Millisecond) })
	for i := 0; i < 5; i++ {
		select {
		case f := <-fired:
			if f.at.Before(f.due) {
				t.Fatalf("a timer fired %v before its deadline", f.due.Sub(f.at))
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of 5 timers fired", i)
		}
	}
	select {
	case <-stopped:
		t.Fatal("a stopped timer fired")
	default:
	}
}

func TestFileDiskPersistsAcrossRuntimes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "disk")
	a := &echo{}
	ra, err := Start(Config{ID: "a", Handler: a, DiskDir: dir, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	ra.Do(func() {
		if err := a.env.Disk().Write("msglog/00001", []byte("payload")); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := a.env.Disk().Write("other/x", []byte("y")); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	ra.Close()

	// A new incarnation sees the data (crash-restart persistence).
	b := &echo{}
	rb, err := Start(Config{ID: "a", Handler: b, DiskDir: dir, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	rb.Do(func() {
		v, ok := b.env.Disk().Read("msglog/00001")
		if !ok || string(v) != "payload" {
			t.Errorf("read = %q,%v", v, ok)
		}
		keys := b.env.Disk().Keys("msglog/")
		if len(keys) != 1 || keys[0] != "msglog/00001" {
			t.Errorf("keys = %v", keys)
		}
		if err := b.env.Disk().Delete("msglog/00001"); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if _, ok := b.env.Disk().Read("msglog/00001"); ok {
			t.Error("delete ineffective")
		}
	})
}

// TestEndToEndGridOverTCP runs a real miniature grid on loopback:
// one coordinator, two servers, one client, millisecond timescales.
func TestEndToEndGridOverTCP(t *testing.T) {
	const (
		beat    = 50 * time.Millisecond
		suspect = 500 * time.Millisecond
	)
	dirOf := func(name string) string { return filepath.Join(t.TempDir(), name) }

	co := coordinator.New(coordinator.Config{
		Coordinators:     []proto.NodeID{"co"},
		HeartbeatTimeout: suspect,
		HeartbeatPeriod:  beat,
	})
	rco, err := Start(Config{ID: "co", ListenAddr: "127.0.0.1:0", Handler: co,
		DiskDir: dirOf("co"), Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rco.Close()
	dir := Directory{"co": rco.Addr()}

	services := map[string]server.Service{
		"upper": func(params []byte) ([]byte, error) {
			out := make([]byte, len(params))
			for i, b := range params {
				if 'a' <= b && b <= 'z' {
					b -= 'a' - 'A'
				}
				out[i] = b
			}
			return out, nil
		},
	}
	for i := 0; i < 2; i++ {
		sv := server.New(server.Config{
			Coordinators:     []proto.NodeID{"co"},
			HeartbeatPeriod:  beat,
			SuspicionTimeout: suspect,
			Services:         services,
		})
		id := proto.NodeID(fmt.Sprintf("sv%d", i))
		rsv, err := Start(Config{ID: id, ListenAddr: "127.0.0.1:0", Handler: sv,
			Directory: dir, DiskDir: dirOf(string(id)), Logf: quietLogf})
		if err != nil {
			t.Fatal(err)
		}
		defer rsv.Close()
		rco.SetPeer(id, rsv.Addr())
	}

	gotResult := make(chan proto.Result, 1)
	cli := client.New(client.Config{
		User: "u", Session: 1,
		Coordinators:     []proto.NodeID{"co"},
		PollPeriod:       beat,
		SuspicionTimeout: suspect,
		Logging:          msglog.NonBlockingPessimistic,
		OnResult: func(res proto.Result, _ time.Time) {
			select {
			case gotResult <- res:
			default:
			}
		},
	})
	rcli, err := Start(Config{ID: "cli", ListenAddr: "127.0.0.1:0", Handler: cli,
		Directory: dir, DiskDir: dirOf("cli"), Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rcli.Close()
	rco.SetPeer("cli", rcli.Addr())

	rcli.Do(func() { cli.Submit("upper", []byte("hello grid"), 0, 0) })

	select {
	case res := <-gotResult:
		if string(res.Output) != "HELLO GRID" {
			t.Fatalf("result = %q", res.Output)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("RPC never completed over the real runtime")
	}
}

// TestOffload: work runs off the loop — the loop keeps answering while
// it blocks — and done runs on it, after work; work still blocked when
// the runtime closes is not waited for, and its done never runs.
func TestOffload(t *testing.T) {
	h := &echo{}
	r, err := Start(Config{ID: "a", Handler: h, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	offload := func(work, done func()) { r.Do(func() { node.Offload(h.env, work, done) }) }

	release, finished := make(chan struct{}), make(chan struct{})
	loopState := 0 // written by done, read through Do: both on the loop, or -race says otherwise
	var produced int
	offload(func() { <-release; produced = 42 }, func() { loopState = produced; close(finished) })
	if err := r.Ping(5 * time.Second); err != nil {
		t.Fatalf("the loop is stuck behind offloaded work: %v", err)
	}
	select {
	case <-finished:
		t.Fatal("done ran before work returned")
	default:
	}
	close(release)
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("done never ran")
	}
	var got int
	r.Do(func() { got = loopState })
	if got != 42 {
		t.Fatalf("done saw %d, want what work produced", got)
	}

	release2, returned := make(chan struct{}), make(chan struct{})
	offload(func() { <-release2; close(returned) }, func() { t.Error("done ran after Close") })
	closed := make(chan struct{})
	go func() { r.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waits for offloaded work")
	}
	close(release2)
	<-returned // the body ends; its done goes to a queue nobody drains
}

// An Offload round trip — the body on a goroutine of its own, done back
// on the loop — allocates at most what the goroutine itself costs: the
// pooled offload record carries both, its callbacks bound once.
func TestOffloadAllocatesOnlyItsGoroutine(t *testing.T) {
	if raceBuild {
		t.Skip("allocation guard: the race detector's sync.Pool drops entries")
	}
	h := &echo{}
	r, err := Start(Config{ID: "a", Handler: h, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	finished := make(chan struct{}, 1)
	work, done := func() {}, func() { finished <- struct{}{} }
	offload := func() { node.Offload(h.env, work, done) }
	roundTrip := func() {
		r.Do(offload)
		<-finished
	}
	for range 10 {
		roundTrip()
	}
	// A goroutine comes off the scheduler's free list once warm, and a
	// new one's stack and g are reused from there: under one allocation.
	if n := testing.AllocsPerRun(200, roundTrip); n >= 1 {
		t.Fatalf("an Offload round trip allocates %v times, want under 1 (its goroutine's own)", n)
	}
}

// flakyListener fails every Accept with the error a process out of file
// descriptors gets, except the seventh, which hands out one end of a
// pipe whose other end is already closed; it stamps every call.
type flakyListener struct {
	mu     sync.Mutex
	calls  []time.Time
	closed chan struct{}
}

func (l *flakyListener) Accept() (net.Conn, error) {
	select {
	case <-l.closed:
		return nil, net.ErrClosed
	default:
	}
	l.mu.Lock()
	l.calls = append(l.calls, time.Now())
	n := len(l.calls)
	l.mu.Unlock()
	if n == 7 {
		conn, peer := net.Pipe()
		peer.Close()
		return conn, nil
	}
	return nil, syscall.EMFILE
}

func (l *flakyListener) Close() error   { close(l.closed); return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

func (l *flakyListener) stamps() []time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.calls)
}

// TestAcceptBacksOffOnPersistentError: an Accept that keeps failing is
// retried after a wait that doubles from 5 ms — six failures take at
// least 315 ms, not a spin of thousands of calls and log lines — and a
// successful accept resets the wait.
func TestAcceptBacksOffOnPersistentError(t *testing.T) {
	r, err := Start(Config{ID: "a", Handler: &echo{}, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ln := &flakyListener{closed: make(chan struct{})}
	r.ln = ln
	r.wg.Add(1)
	go r.acceptLoop()

	var calls []time.Time
	if !waitFor(t, 5*time.Second, func() bool { calls = ln.stamps(); return len(calls) >= 9 }) {
		t.Fatalf("%d accepts in 5 s", len(calls))
	}
	// Calls 1-6 fail and wait 5, 10, 20, 40, 80 and 160 ms; call 7
	// accepts; call 8 fails and waits 5 ms again before call 9.
	if span := calls[6].Sub(calls[0]); span < 315*time.Millisecond {
		t.Fatalf("six failed accepts took %v, want at least 315 ms of backoff", span)
	}
	if gap := calls[5].Sub(calls[4]); gap < 80*time.Millisecond {
		t.Fatalf("the fifth failure was retried after %v, want the wait doubled to 80 ms", gap)
	}
	if gap := calls[8].Sub(calls[7]); gap >= 160*time.Millisecond {
		t.Fatalf("the first failure after an accept was retried after %v, want the wait reset to 5 ms", gap)
	}
}
