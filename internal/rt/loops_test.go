package rt

// Tests of the multi-core runtime: partition routing (loop tags,
// session pinning, broadcast), the per-loop RNG race fix, per-loop
// liveness probes, and durable recovery across restarts with per-loop
// store lanes. The CI matrix runs this package under RPCV_LOOPS=1 and
// RPCV_LOOPS=4 (see testLoops), so every scenario is exercised both on
// the classic single loop and on a genuinely partitioned runtime.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/proto"
)

// testLoops returns the loop count multi-loop tests run with: the
// RPCV_LOOPS environment variable (the CI matrix) or 4.
func testLoops() int {
	if s := os.Getenv("RPCV_LOOPS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 4
}

// partSeen is one recorded delivery.
type partSeen struct {
	from proto.NodeID
	msg  proto.Message
}

// partRecorder is a partitioned test handler: each partition records
// what it received, so tests can assert exactly which loop a message
// landed on.
type partRecorder struct {
	idx int

	mu   sync.Mutex
	env  node.Env
	seen []partSeen

	kids []*partRecorder // root only, set by Partition
}

func (p *partRecorder) Start(env node.Env) {
	p.mu.Lock()
	p.env = env
	p.mu.Unlock()
}
func (p *partRecorder) Stop() {}
func (p *partRecorder) Receive(from proto.NodeID, m proto.Message) {
	p.mu.Lock()
	p.seen = append(p.seen, partSeen{from, m})
	p.mu.Unlock()
}

// Partition implements node.PartitionedHandler.
func (p *partRecorder) Partition(n int) []node.Handler {
	out := make([]node.Handler, n)
	out[0] = p
	p.kids = []*partRecorder{p}
	for i := 1; i < n; i++ {
		k := &partRecorder{idx: i}
		p.kids = append(p.kids, k)
		out[i] = k
	}
	return out
}

// partition returns partition i (the root itself when the runtime
// clamped to a single loop and never partitioned).
func (p *partRecorder) partition(i int) *partRecorder {
	if len(p.kids) == 0 {
		return p
	}
	return p.kids[i]
}

func (p *partRecorder) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.seen)
}

func (p *partRecorder) first() partSeen {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seen[0]
}

// startPair boots two partitioned runtimes wired to each other.
func startPair(t *testing.T, loops int) (*partRecorder, *partRecorder, *Runtime, *Runtime) {
	t.Helper()
	a, b := &partRecorder{}, &partRecorder{}
	ra, err := Start(Config{ID: "a", ListenAddr: "127.0.0.1:0", Handler: a, Loops: loops, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ra.Close)
	rb, err := Start(Config{ID: "b", ListenAddr: "127.0.0.1:0", Handler: b, Loops: loops, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rb.Close)
	ra.SetPeer("b", rb.Addr())
	rb.SetPeer("a", ra.Addr())
	return a, b, ra, rb
}

// TestLoopTagRoutesPartitionToPartition: sessionless traffic from a
// multi-loop peer carries its originating loop in the wire From, and
// the receiver routes partition j's messages to its own partition j —
// with the tag stripped before the handler sees the sender ID.
func TestLoopTagRoutesPartitionToPartition(t *testing.T) {
	loops := testLoops()
	a, b, ra, rb := startPair(t, loops)
	_ = rb

	for j := 0; j < ra.Loops(); j++ {
		j := j
		ra.DoOn(j, func() {
			a.partition(j).env.Send("b", &proto.Heartbeat{From: "a", Role: proto.RoleClient})
		})
	}
	total := func() int {
		n := 0
		for j := 0; j < rb.Loops(); j++ {
			n += b.partition(j).count()
		}
		return n
	}
	if !waitFor(t, 5*time.Second, func() bool { return total() >= ra.Loops() }) {
		t.Fatalf("delivered %d of %d heartbeats", total(), ra.Loops())
	}
	for j := 0; j < rb.Loops(); j++ {
		p := b.partition(j)
		if p.count() != 1 {
			t.Errorf("partition %d saw %d messages, want exactly 1 (j -> j routing)", j, p.count())
			continue
		}
		if got := p.first().from; got != "a" {
			t.Errorf("partition %d saw from = %q, want loop tag stripped to %q", j, got, "a")
		}
	}
}

// TestSessionTrafficPinnedToOwner: a session-carrying message lands on
// the loop the runtime's LoopFor predicts, whatever loop count either
// side runs.
func TestSessionTrafficPinnedToOwner(t *testing.T) {
	loops := testLoops()
	b := &partRecorder{}
	rb, err := Start(Config{ID: "b", ListenAddr: "127.0.0.1:0", Handler: b, Loops: loops, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	a := &echo{}
	ra, err := Start(Config{ID: "a", ListenAddr: "127.0.0.1:0", Handler: a, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	ra.SetPeer("b", rb.Addr())

	for s := 1; s <= 8; s++ {
		call := proto.CallID{User: "u", Session: proto.SessionID(s), Seq: 1}
		ra.Do(func() {
			a.env.Send("b", &proto.Submit{Call: call, Service: "noop"})
		})
	}
	total := func() int {
		n := 0
		for j := 0; j < rb.Loops(); j++ {
			n += b.partition(j).count()
		}
		return n
	}
	if !waitFor(t, 5*time.Second, func() bool { return total() >= 8 }) {
		t.Fatalf("delivered %d of 8 submits", total())
	}
	// Every submit must sit on its session's owner loop and nowhere
	// else.
	byLoop := make(map[int]int)
	for j := 0; j < rb.Loops(); j++ {
		p := b.partition(j)
		p.mu.Lock()
		for _, s := range p.seen {
			sub := s.msg.(*proto.Submit)
			owner := rb.LoopFor(sub.Call.User, sub.Call.Session)
			if owner != j {
				t.Errorf("session %d delivered to loop %d, owner is %d", sub.Call.Session, j, owner)
			}
			byLoop[j]++
		}
		p.mu.Unlock()
	}
	if rb.Loops() > 1 && len(byLoop) < 2 {
		t.Errorf("all 8 sessions hashed onto loops %v; expected spread over %d loops", byLoop, rb.Loops())
	}
}

// TestServerHeartbeatBroadcast: a server heartbeat reaches every
// partition — each owns a disjoint session slice, and all of them must
// observe worker liveness.
func TestServerHeartbeatBroadcast(t *testing.T) {
	loops := testLoops()
	b := &partRecorder{}
	rb, err := Start(Config{ID: "b", ListenAddr: "127.0.0.1:0", Handler: b, Loops: loops, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	a := &echo{}
	ra, err := Start(Config{ID: "sv", ListenAddr: "127.0.0.1:0", Handler: a, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	ra.SetPeer("b", rb.Addr())

	ra.Do(func() { a.env.Send("b", &proto.Heartbeat{From: "sv", Role: proto.RoleServer}) })
	for j := 0; j < rb.Loops(); j++ {
		j := j
		if !waitFor(t, 5*time.Second, func() bool { return b.partition(j).count() >= 1 }) {
			t.Errorf("partition %d never saw the server heartbeat broadcast", j)
		}
	}
}

// TestRandPerLoop is the regression test for the shared-RNG race: every
// loop must own a private rand.Rand (concurrent draws across loops are
// what the -race run verifies), and with a fixed seed the streams must
// be distinct per loop, not one stream observed from N goroutines.
func TestRandPerLoop(t *testing.T) {
	loops := testLoops()
	h := &partRecorder{}
	ra, err := Start(Config{ID: "a", Handler: h, Loops: loops, Seed: 42, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	draws := make([][]int64, ra.Loops())
	var wg sync.WaitGroup
	for i := 0; i < ra.Loops(); i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				ra.DoOn(i, func() {
					draws[i] = append(draws[i], h.partition(i).env.Rand().Int63())
				})
			}
		}()
	}
	wg.Wait()
	for i := 0; i < ra.Loops(); i++ {
		if len(draws[i]) != 200 {
			t.Fatalf("loop %d drew %d values, want 200", i, len(draws[i]))
		}
		for j := i + 1; j < ra.Loops(); j++ {
			if draws[i][0] == draws[j][0] && draws[i][1] == draws[j][1] {
				t.Errorf("loops %d and %d share an RNG stream (identical draws)", i, j)
			}
		}
	}
}

// wedgeLoop parks the calling goroutine until block closes. Wedging a
// loop is the entire point of the stalled-probe test, so the block is
// deliberate, not a latent bug for the loop discipline to flag.
//
//rpcv:loop-safe
func wedgeLoop(started, block chan struct{}) {
	close(started)
	<-block
}

// TestPingLoopReportsStalledLoop: a wedged loop with a full mailbox
// fails its own liveness probe — naming the loop — while healthy loops
// keep answering, and the probe recovers once the loop drains.
func TestPingLoopReportsStalledLoop(t *testing.T) {
	h := &partRecorder{}
	ra, err := Start(Config{ID: "a", Handler: h, Loops: 2, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	if ra.Loops() != 2 {
		t.Fatalf("Loops() = %d, want 2", ra.Loops())
	}

	started := make(chan struct{})
	block := make(chan struct{})
	ra.DoAsyncOn(1, func() { wedgeLoop(started, block) })
	<-started
	// The loop goroutine is wedged; now saturate its mailbox so the
	// probe fails at the accept phase, not the execute phase.
	for {
		select {
		case ra.loops[1].mailbox <- mail{fn: func() {}}:
			continue
		default:
		}
		break
	}
	err1 := ra.PingLoop(1, 100*time.Millisecond)
	if err1 == nil {
		t.Fatal("PingLoop(1) succeeded on a wedged loop with a full mailbox")
	}
	if !strings.Contains(err1.Error(), "loop 1") {
		t.Errorf("PingLoop(1) error %q does not name the loop", err1)
	}
	if err := ra.PingLoop(0, time.Second); err != nil {
		t.Errorf("PingLoop(0) on a healthy loop: %v", err)
	}
	if err := ra.Ping(time.Second); err != nil {
		t.Errorf("Ping (loop 0) on a healthy loop: %v", err)
	}
	close(block)
	if !waitFor(t, 5*time.Second, func() bool { return ra.PingLoop(1, time.Second) == nil }) {
		t.Error("PingLoop(1) never recovered after the loop drained")
	}
}

// TestNonPartitionedHandlerClampsLoops: asking for multiple loops with
// a handler that cannot partition must degrade to the classic single
// loop, not fail or misroute.
func TestNonPartitionedHandlerClampsLoops(t *testing.T) {
	a := &echo{}
	ra, err := Start(Config{ID: "a", Handler: a, Loops: 8, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	if ra.Loops() != 1 {
		t.Fatalf("Loops() = %d, want clamp to 1 for a non-partitioned handler", ra.Loops())
	}
	if err := ra.Ping(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestMultiLoopDiskRecovery: every loop writes through its own store
// lane (wal engine), the runtime is closed, and a fresh incarnation
// over the same directory must read every loop's keys back — including
// tombstones — whatever loop count either incarnation runs.
func TestMultiLoopDiskRecovery(t *testing.T) {
	loops := testLoops()
	dir := t.TempDir()
	const perLoop = 25

	h := &partRecorder{}
	ra, err := Start(Config{ID: "a", Handler: h, Loops: loops, DiskDir: dir, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	n := ra.Loops()
	var pending sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		ra.DoOn(i, func() {
			d := h.partition(i).env.Disk().(node.BatchDisk)
			for k := 0; k < perLoop; k++ {
				key := fmt.Sprintf("rec/%d/%03d", i, k)
				if k%2 == 0 {
					if err := d.Write(key, []byte(key)); err != nil {
						t.Errorf("loop %d write: %v", i, err)
					}
				} else {
					pending.Add(1)
					d.WriteAsync(key, []byte(key), func(err error) {
						if err != nil {
							t.Errorf("loop %d async write: %v", i, err)
						}
						pending.Done()
					})
				}
			}
			// A tombstone per loop: deletes must recover too.
			if err := d.Write(fmt.Sprintf("rec/%d/doomed", i), []byte("x")); err != nil {
				t.Errorf("loop %d write doomed: %v", i, err)
			}
			if err := d.Delete(fmt.Sprintf("rec/%d/doomed", i)); err != nil {
				t.Errorf("loop %d delete: %v", i, err)
			}
		})
	}
	pending.Wait()
	// Read-your-writes within a lane before any commit barrier.
	for i := 0; i < n; i++ {
		i := i
		ra.DoOn(i, func() {
			d := h.partition(i).env.Disk()
			key := fmt.Sprintf("rec/%d/000", i)
			if v, ok := d.Read(key); !ok || string(v) != key {
				t.Errorf("loop %d read-your-writes: %q, %v", i, v, ok)
			}
			if got := len(d.Keys(fmt.Sprintf("rec/%d/", i))); got != perLoop {
				t.Errorf("loop %d Keys = %d, want %d", i, got, perLoop)
			}
		})
	}
	ra.Close()

	h2 := &partRecorder{}
	rb, err := Start(Config{ID: "a", Handler: h2, Loops: loops, DiskDir: dir, Logf: quietLogf})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer rb.Close()
	rb.Do(func() {
		d := h2.partition(0).env.Disk()
		for i := 0; i < n; i++ {
			keys := d.Keys(fmt.Sprintf("rec/%d/", i))
			if len(keys) != perLoop {
				t.Errorf("recovered %d keys for loop %d, want %d", len(keys), i, perLoop)
			}
			if _, ok := d.Read(fmt.Sprintf("rec/%d/doomed", i)); ok {
				t.Errorf("loop %d tombstone resurrected after recovery", i)
			}
			for k := 0; k < perLoop; k++ {
				key := fmt.Sprintf("rec/%d/%03d", i, k)
				if v, ok := d.Read(key); !ok || string(v) != key {
					t.Errorf("recovered %s = %q, %v", key, v, ok)
				}
			}
		}
	})
}
