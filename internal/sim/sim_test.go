package sim

import (
	"testing"
	"testing/quick"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/proto"
)

// probe is a minimal handler recording everything it sees.
type probe struct {
	env      node.Env
	started  int
	stopped  int
	received []proto.Message
	froms    []proto.NodeID
	onStart  func(env node.Env)
	onRecv   func(from proto.NodeID, msg proto.Message)
}

func (p *probe) Start(env node.Env) {
	p.env = env
	p.started++
	if p.onStart != nil {
		p.onStart(env)
	}
}
func (p *probe) Receive(from proto.NodeID, msg proto.Message) {
	p.received = append(p.received, msg)
	p.froms = append(p.froms, from)
	if p.onRecv != nil {
		p.onRecv(from, msg)
	}
}
func (p *probe) Stop() { p.stopped++ }

// ping is a trivial test message.
type ping struct{ N int }

func (*ping) Kind() string    { return "ping" }
func (p *ping) WireSize() int { return 8 }

func TestClockAdvancesWithEvents(t *testing.T) {
	w := NewWorld(Config{})
	var fired []time.Duration
	w.Schedule(5*time.Second, func() { fired = append(fired, w.Elapsed()) })
	w.Schedule(time.Second, func() { fired = append(fired, w.Elapsed()) })
	w.RunFor(10 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if fired[0] != time.Second || fired[1] != 5*time.Second {
		t.Fatalf("events at %v, want [1s 5s]", fired)
	}
	if w.Elapsed() != 10*time.Second {
		t.Fatalf("clock at %v, want 10s", w.Elapsed())
	}
}

func TestEventOrderFIFOAmongSimultaneous(t *testing.T) {
	w := NewWorld(Config{})
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		w.Schedule(time.Second, func() { order = append(order, i) })
	}
	w.RunFor(2 * time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events ran out of order: %v", order)
		}
	}
}

func TestSendDelivery(t *testing.T) {
	w := NewWorld(Config{})
	a, b := &probe{}, &probe{}
	w.AddNode("a", a)
	w.AddNode("b", b)
	w.Start("a")
	w.Start("b")
	a.env.Send("b", &ping{N: 1})
	w.RunFor(time.Second)
	if len(b.received) != 1 {
		t.Fatalf("b received %d messages, want 1", len(b.received))
	}
	if b.froms[0] != "a" {
		t.Fatalf("sender = %s, want a", b.froms[0])
	}
}

func TestSendToDeadNodeDropped(t *testing.T) {
	w := NewWorld(Config{})
	a, b := &probe{}, &probe{}
	w.AddNode("a", a)
	w.AddNode("b", b)
	w.Start("a")
	w.Start("b")
	w.Crash("b")
	a.env.Send("b", &ping{})
	w.RunFor(time.Second)
	if len(b.received) != 0 {
		t.Fatal("dead node received a message")
	}
	_, dropped := w.Stats()
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}

func TestCrashCancelsTimers(t *testing.T) {
	w := NewWorld(Config{})
	fired := false
	p := &probe{}
	p.onStart = func(env node.Env) {
		env.After(time.Second, func() { fired = true })
	}
	w.AddNode("n", p)
	w.Start("n")
	w.Crash("n")
	// Restart schedules its own timer (incarnation 2); the incarnation-1
	// timer must not fire.
	w.RunFor(5 * time.Second)
	if fired {
		t.Fatal("timer of crashed incarnation fired")
	}
	if p.stopped != 1 {
		t.Fatalf("Stop called %d times, want 1", p.stopped)
	}
}

func TestRestartKeepsDisk(t *testing.T) {
	w := NewWorld(Config{})
	p := &probe{}
	w.AddNode("n", p)
	w.Start("n")
	if err := p.env.Disk().Write("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	w.Restart("n")
	got, ok := p.env.Disk().Read("k")
	if !ok || string(got) != "v" {
		t.Fatalf("disk after restart = %q,%v; want v,true", got, ok)
	}
	if p.started != 2 {
		t.Fatalf("started %d times, want 2", p.started)
	}
}

func TestWipeDisk(t *testing.T) {
	w := NewWorld(Config{})
	p := &probe{}
	w.AddNode("n", p)
	w.Start("n")
	_ = p.env.Disk().Write("k", []byte("v"))
	w.Crash("n")
	w.WipeDisk("n")
	w.Start("n")
	if _, ok := p.env.Disk().Read("k"); ok {
		t.Fatal("wiped disk still holds data")
	}
}

func TestTimerStop(t *testing.T) {
	w := NewWorld(Config{})
	p := &probe{}
	fired := false
	p.onStart = func(env node.Env) {
		tm := env.After(time.Second, func() { fired = true })
		tm.Stop()
	}
	w.AddNode("n", p)
	w.Start("n")
	w.RunFor(5 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestRunUntil(t *testing.T) {
	w := NewWorld(Config{})
	count := 0
	var tick func()
	tick = func() {
		count++
		w.Schedule(time.Second, tick)
	}
	w.Schedule(time.Second, tick)
	ok := w.RunUntil(func() bool { return count >= 5 }, w.Now().Add(time.Hour))
	if !ok || count != 5 {
		t.Fatalf("RunUntil stopped at count=%d ok=%v", count, ok)
	}
	// Deadline respected when cond never holds.
	ok = w.RunUntil(func() bool { return false }, w.Now().Add(3*time.Second))
	if ok {
		t.Fatal("RunUntil reported success on unreachable condition")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		w := NewWorld(Config{Seed: 42})
		var at []time.Duration
		p := &probe{}
		p.onStart = func(env node.Env) {
			var loop func()
			loop = func() {
				at = append(at, w.Elapsed())
				jitter := time.Duration(env.Rand().Int63n(int64(time.Second)))
				env.After(jitter, loop)
			}
			env.After(0, loop)
		}
		w.AddNode("n", p)
		w.Start("n")
		w.RunFor(30 * time.Second)
		return at
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	w := NewWorld(Config{})
	w.AddNode("n", &probe{})
	w.AddNode("n", &probe{})
}

func TestMemDiskQuick(t *testing.T) {
	// Property: Read returns the last Write; Keys is sorted and
	// prefix-filtered.
	f := func(keys []string, val []byte) bool {
		d := NewMemDisk()
		for _, k := range keys {
			if err := d.Write(k, val); err != nil {
				return false
			}
		}
		for _, k := range keys {
			got, ok := d.Read(k)
			if !ok || string(got) != string(val) {
				return false
			}
		}
		all := d.Keys("")
		for i := 1; i < len(all); i++ {
			if all[i-1] >= all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The node.Disk ownership contract: the disk keeps the slice it is
// handed and hands that slice back, with no copy on either side.
func TestMemDiskKeepsTheWritersSlice(t *testing.T) {
	d := NewMemDisk()
	buf := []byte("abc")
	_ = d.Write("k", buf)
	got, ok := d.Read("k")
	if !ok || &got[0] != &buf[0] || len(got) != len(buf) {
		t.Fatal("Read did not return the slice Write was handed")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = d.Write("k", buf)
		_, _ = d.Read("k")
	}); allocs != 0 {
		t.Fatalf("a write and a read of an existing key allocate %v times, want 0", allocs)
	}
}

func TestSelfSendAfterCrashIgnored(t *testing.T) {
	// A handler crashing itself mid-event must not leak sends.
	w := NewWorld(Config{})
	a, b := &probe{}, &probe{}
	w.AddNode("a", a)
	w.AddNode("b", b)
	w.Start("a")
	w.Start("b")
	env := a.env
	w.Crash("a")
	env.Send("b", &ping{}) // stale env of dead incarnation
	w.RunFor(time.Second)
	if len(b.received) != 0 {
		t.Fatal("send from dead incarnation delivered")
	}
}
