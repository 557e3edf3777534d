package msglog

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/proto"
	"rpcv/internal/sim"
)

// host exposes a node.Env to the test body.
type host struct {
	env   node.Env
	inbox []proto.Message
}

func (h *host) Start(env node.Env)                      { h.env = env }
func (h *host) Receive(_ proto.NodeID, m proto.Message) { h.inbox = append(h.inbox, m) }
func (h *host) Stop()                                   {}

type blob struct{ Data []byte }

func (*blob) Kind() string    { return "blob" }
func (b *blob) WireSize() int { return len(b.Data) }

// rig builds a two-node world: "src" owning the log under test and
// "dst" collecting transmissions.
func rig(t *testing.T, strategy Strategy, disk DiskModel) (*sim.World, *host, *host, *Log) {
	t.Helper()
	w := sim.NewWorld(sim.Config{Seed: 1})
	src, dst := &host{}, &host{}
	w.AddNode("src", src)
	w.AddNode("dst", dst)
	w.Start("src")
	w.Start("dst")
	l := New(src.env, Config{Strategy: strategy, Disk: disk})
	return w, src, dst, l
}

func fixedDisk(d time.Duration) DiskModel { return func(int) time.Duration { return d } }

func TestOptimisticSendsImmediately(t *testing.T) {
	w, _, dst, l := rig(t, Optimistic, fixedDisk(10*time.Millisecond))
	doneAt := time.Time{}
	l.LogAndSend("dst", &blob{Data: []byte("x")}, Entry{Key: "1", Data: []byte("x")},
		func() { doneAt = w.Now() })
	if !doneAt.Equal(w.Now()) {
		t.Fatal("optimistic completion not immediate")
	}
	// Entry not yet durable.
	if l.Len() != 0 {
		t.Fatal("optimistic write completed synchronously")
	}
	w.RunFor(time.Second)
	if len(dst.inbox) != 1 {
		t.Fatalf("dst received %d messages, want 1", len(dst.inbox))
	}
	if l.Len() != 1 {
		t.Fatal("optimistic flush never landed")
	}
}

func TestOptimisticCrashLosesUnflushed(t *testing.T) {
	w, src, _, l := rig(t, Optimistic, fixedDisk(10*time.Millisecond))
	l.LogAndSend("dst", &blob{Data: []byte("x")}, Entry{Key: "1", Data: []byte("x")}, nil)
	w.Crash("src")
	w.RunFor(time.Second)
	if n := len(src.env.Disk().Keys("msglog/")); n != 0 {
		t.Fatalf("crash before flush left %d durable entries, want 0", n)
	}
}

func TestBlockingPessimisticWritesBeforeSend(t *testing.T) {
	w, _, dst, l := rig(t, BlockingPessimistic, fixedDisk(10*time.Millisecond))
	var doneAt time.Time
	l.LogAndSend("dst", &blob{Data: []byte("x")}, Entry{Key: "1", Data: []byte("x")},
		func() { doneAt = w.Now() })
	// Nothing sent or written yet.
	if len(dst.inbox) != 0 || l.Len() != 0 {
		t.Fatal("blocking pessimistic acted before the disk delay")
	}
	w.RunFor(5 * time.Millisecond)
	if len(dst.inbox) != 0 {
		t.Fatal("message on the wire before the write completed")
	}
	w.RunFor(time.Second)
	if l.Len() != 1 || len(dst.inbox) != 1 {
		t.Fatalf("after run: %d entries, %d deliveries; want 1,1", l.Len(), len(dst.inbox))
	}
	if doneAt.Sub(sim.Epoch) < 10*time.Millisecond {
		t.Fatalf("completion at %v, want >= 10ms", doneAt.Sub(sim.Epoch))
	}
}

func TestNonBlockingPessimisticOverlaps(t *testing.T) {
	w, _, dst, l := rig(t, NonBlockingPessimistic, fixedDisk(10*time.Millisecond))
	var doneAt time.Time
	l.LogAndSend("dst", &blob{Data: []byte("x")}, Entry{Key: "1", Data: []byte("x")},
		func() { doneAt = w.Now() })
	w.RunFor(time.Millisecond)
	// The send must already be out (instant network here).
	if len(dst.inbox) != 1 {
		t.Fatal("non-blocking send did not start immediately")
	}
	if !doneAt.IsZero() {
		t.Fatal("completion before the write finished")
	}
	w.RunFor(time.Second)
	if doneAt.Sub(sim.Epoch) != 10*time.Millisecond {
		t.Fatalf("completion at %v, want 10ms", doneAt.Sub(sim.Epoch))
	}
}

func TestDiskWritesSerialize(t *testing.T) {
	w, _, _, l := rig(t, BlockingPessimistic, fixedDisk(10*time.Millisecond))
	var completions []time.Duration
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("%d", i)
		l.LogAndSend("dst", &blob{Data: []byte("x")}, Entry{Key: key, Data: []byte("x")},
			func() { completions = append(completions, w.Elapsed()) })
	}
	w.RunFor(time.Second)
	if len(completions) != 4 {
		t.Fatalf("%d completions, want 4", len(completions))
	}
	for i, c := range completions {
		want := time.Duration(i+1) * 10 * time.Millisecond
		if c != want {
			t.Fatalf("completion %d at %v, want %v (disk must serialize)", i, c, want)
		}
	}
}

func TestBatchedModeAmortizesFloor(t *testing.T) {
	// The sim-side group-commit model: with Batched, N simultaneous
	// blocking-pessimistic writes complete in one solo commit plus one
	// shared-floor batch, not N serial commits.
	model := func(size int) time.Duration {
		return 10*time.Millisecond + time.Duration(size)*time.Millisecond
	}
	w := sim.NewWorld(sim.Config{Seed: 1})
	src, dst := &host{}, &host{}
	w.AddNode("src", src)
	w.AddNode("dst", dst)
	w.Start("src")
	w.Start("dst")
	l := New(src.env, Config{Strategy: BlockingPessimistic, Disk: model, Batched: true})

	var completions []time.Duration
	for i := 0; i < 4; i++ {
		l.LogAndSend("dst", &blob{Data: []byte("x")}, Entry{Key: fmt.Sprintf("%d", i), Data: []byte("x")},
			func() { completions = append(completions, w.Elapsed()) })
	}
	w.RunFor(time.Second)
	if len(completions) != 4 {
		t.Fatalf("%d completions, want 4", len(completions))
	}
	// Solo commit at 11ms; joiners share one floor: 22, 23, 24ms.
	want := []time.Duration{11, 22, 23, 24}
	for i, c := range completions {
		if c != want[i]*time.Millisecond {
			t.Fatalf("completion %d at %v, want %vms", i, c, want[i])
		}
	}
	if l.Len() != 4 {
		t.Fatalf("durable entries = %d, want 4", l.Len())
	}
}

// fakeBatchDisk implements node.BatchDisk with manual commit control:
// staged callbacks fire only when the test calls commit, modelling the
// group-commit store's fsync boundary.
type fakeBatchDisk struct {
	data   map[string][]byte
	staged []func(error)
}

func newFakeBatchDisk() *fakeBatchDisk { return &fakeBatchDisk{data: map[string][]byte{}} }

func (d *fakeBatchDisk) Write(key string, value []byte) error {
	d.data[key] = append([]byte(nil), value...)
	return nil
}
func (d *fakeBatchDisk) WriteAsync(key string, value []byte, done func(error)) {
	d.data[key] = append([]byte(nil), value...)
	d.staged = append(d.staged, done)
}
func (d *fakeBatchDisk) DeleteAsync(key string, done func(error)) {
	delete(d.data, key)
	d.staged = append(d.staged, done)
}
func (d *fakeBatchDisk) Read(key string) ([]byte, bool) { v, ok := d.data[key]; return v, ok }
func (d *fakeBatchDisk) Delete(key string) error        { delete(d.data, key); return nil }
func (d *fakeBatchDisk) Keys(prefix string) []string {
	var keys []string
	for k := range d.data {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
	}
	return keys
}
func (d *fakeBatchDisk) Sync() error { return nil }
func (d *fakeBatchDisk) commit() {
	staged := d.staged
	d.staged = nil
	for _, f := range staged {
		if f != nil {
			f(nil)
		}
	}
}

// batchEnv is a minimal node.Env over a fakeBatchDisk.
type batchEnv struct {
	disk *fakeBatchDisk
	sent []proto.Message
}

func (e *batchEnv) Self() proto.NodeID                     { return "src" }
func (e *batchEnv) Now() time.Time                         { return sim.Epoch }
func (e *batchEnv) Send(_ proto.NodeID, m proto.Message)   { e.sent = append(e.sent, m) }
func (e *batchEnv) Disk() node.Disk                        { return e.disk }
func (e *batchEnv) Rand() *rand.Rand                       { return rand.New(rand.NewSource(1)) }
func (e *batchEnv) Logf(string, ...any)                    {}
func (e *batchEnv) After(time.Duration, func()) node.Timer { return noopTimer{} }

type noopTimer struct{}

func (noopTimer) Stop() {}

// TestBatchDiskRoutesDurabilityWaits pins the real-store path: every
// strategy stages through WriteAsync and ties its completion point to
// the batch fsync, not the DiskModel.
func TestBatchDiskRoutesDurabilityWaits(t *testing.T) {
	entry := Entry{Key: "1", Data: []byte("x")}

	t.Run("blocking-pessimistic", func(t *testing.T) {
		env := &batchEnv{disk: newFakeBatchDisk()}
		l := New(env, Config{Strategy: BlockingPessimistic, Disk: InstantDisk()})
		completed := false
		l.LogAndSend("dst", &blob{}, entry, func() { completed = true })
		// Staged (read-your-writes) but the communication must not
		// have begun: the batch has not fsynced.
		if _, ok := l.Get("1"); !ok {
			t.Fatal("entry not staged")
		}
		if len(env.sent) != 0 || completed {
			t.Fatal("blocking pessimistic acted before the group commit")
		}
		env.disk.commit()
		if len(env.sent) != 1 || !completed {
			t.Fatalf("after commit: sent=%d completed=%v, want 1,true", len(env.sent), completed)
		}
	})

	t.Run("non-blocking-pessimistic", func(t *testing.T) {
		env := &batchEnv{disk: newFakeBatchDisk()}
		l := New(env, Config{Strategy: NonBlockingPessimistic, Disk: InstantDisk()})
		completed := false
		l.LogAndSend("dst", &blob{}, entry, func() { completed = true })
		// The send overlaps the commit; completion waits for it.
		if len(env.sent) != 1 {
			t.Fatal("non-blocking send did not start immediately")
		}
		if completed {
			t.Fatal("completion before the batch fsync")
		}
		env.disk.commit()
		if !completed {
			t.Fatal("completion never fired after the commit")
		}
	})

	t.Run("optimistic", func(t *testing.T) {
		env := &batchEnv{disk: newFakeBatchDisk()}
		l := New(env, Config{Strategy: Optimistic, Disk: InstantDisk()})
		completed := false
		l.LogAndSend("dst", &blob{}, entry, func() { completed = true })
		// Everything immediate; durability rides the next commit.
		if len(env.sent) != 1 || !completed {
			t.Fatal("optimistic did not complete at send")
		}
		env.disk.commit()
		if _, ok := l.Get("1"); !ok {
			t.Fatal("entry lost")
		}
	})
}

func TestKeysSortedAndGet(t *testing.T) {
	w, _, _, l := rig(t, BlockingPessimistic, fixedDisk(0))
	for _, k := range []string{"b", "a", "c"} {
		l.LogAndSend("dst", &blob{Data: []byte(k)}, Entry{Key: k, Data: []byte(k)}, nil)
	}
	w.RunFor(time.Second)
	keys := l.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("keys = %v", keys)
	}
	v, ok := l.Get("b")
	if !ok || string(v) != "b" {
		t.Fatalf("Get(b) = %q,%v", v, ok)
	}
}

func TestGC(t *testing.T) {
	w, _, _, l := rig(t, BlockingPessimistic, fixedDisk(0))
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("%d", i)
		l.LogAndSend("dst", &blob{}, Entry{Key: k, Data: []byte(k)}, nil)
	}
	w.RunFor(time.Second)
	for _, k := range []string{"0", "1", "2", "2", "never-logged"} {
		l.Drop(k) // dropping twice, or what was never there, is a no-op
	}
	if keys := l.Keys(); l.Len() != 3 || len(keys) != 3 || keys[0] != "3" {
		t.Fatalf("after dropping 0..2: Len %d, keys %v; want 3 entries from 3 up", l.Len(), keys)
	}
	// An entry dropped before its modelled write fires never lands.
	slow := New(l.env, Config{Prefix: "slow/", Strategy: Optimistic, Disk: fixedDisk(time.Second)})
	slow.LogAndSend("dst", &blob{}, Entry{Key: "x", Data: []byte("x")}, nil)
	slow.Drop("x")
	w.RunFor(2 * time.Second)
	if slow.Len() != 0 || len(slow.Keys()) != 0 {
		t.Fatalf("an entry dropped while its write waited is on the disk: Len %d, keys %v", slow.Len(), slow.Keys())
	}
}

func TestParseStrategy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Strategy
	}{
		{"optimistic", Optimistic},
		{"opt", Optimistic},
		{"blocking", BlockingPessimistic},
		{"blocking-pessimistic", BlockingPessimistic},
		{"non-blocking", NonBlockingPessimistic},
		{"nonblocking", NonBlockingPessimistic},
	} {
		got, err := ParseStrategy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseStrategy(%q) = %v,%v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted bogus input")
	}
	// Round trip through String.
	for _, s := range []Strategy{Optimistic, BlockingPessimistic, NonBlockingPessimistic} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%v.String()) = %v,%v", s, got, err)
		}
	}
}

func TestIDEDiskScalesWithSize(t *testing.T) {
	m := IDEDisk()
	small, big := m(100), m(100<<20)
	if small < 6*time.Millisecond {
		t.Fatalf("small write %v below access floor", small)
	}
	if big < 4*time.Second || big > 5*time.Second {
		t.Fatalf("100MB write = %v, want ~4s at 25MB/s", big)
	}
}

func TestCloseCancelsOptimisticFlushes(t *testing.T) {
	w, _, _, l := rig(t, Optimistic, fixedDisk(10*time.Millisecond))
	l.LogAndSend("dst", &blob{}, Entry{Key: "1", Data: []byte("x")}, nil)
	l.Close()
	w.RunFor(time.Second)
	if l.Len() != 0 {
		t.Fatal("flush fired after Close")
	}
}
