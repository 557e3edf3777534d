package msglog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/node/nodetest"
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
	l.LogAndSend("dst", &blob{Data: []byte("x")}, Entry{Key: l.Key("1"), Data: []byte("x")},
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
	l.LogAndSend("dst", &blob{Data: []byte("x")}, Entry{Key: l.Key("1"), Data: []byte("x")}, nil)
	w.Crash("src")
	w.RunFor(time.Second)
	if n := len(src.env.Disk().Keys("msglog/")); n != 0 {
		t.Fatalf("crash before flush left %d durable entries, want 0", n)
	}
}

func TestBlockingPessimisticWritesBeforeSend(t *testing.T) {
	w, _, dst, l := rig(t, BlockingPessimistic, fixedDisk(10*time.Millisecond))
	var doneAt time.Time
	l.LogAndSend("dst", &blob{Data: []byte("x")}, Entry{Key: l.Key("1"), Data: []byte("x")},
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
	l.LogAndSend("dst", &blob{Data: []byte("x")}, Entry{Key: l.Key("1"), Data: []byte("x")},
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
		l.LogAndSend("dst", &blob{Data: []byte("x")}, Entry{Key: l.Key(key), Data: []byte("x")},
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

// fakeBatchDisk implements node.BatchDisk with manual commit control:
// staged callbacks fire only when the test calls commit, modelling the
// group-commit store's fsync boundary.
type fakeBatchDisk struct {
	data   map[string][]byte
	staged []func(error)
	ops    []string // every write ("w key") and delete ("d key"), in order
	// failNow lists the keys whose staged write fails at once: its
	// completion runs, with errFailNow, before WriteAsync returns.
	failNow map[string]bool
}

var errFailNow = errors.New("write failed at once")

func newFakeBatchDisk() *fakeBatchDisk { return &fakeBatchDisk{data: map[string][]byte{}} }

func (d *fakeBatchDisk) Write(key string, value []byte) error {
	d.ops = append(d.ops, "w "+key)
	d.data[key] = append([]byte(nil), value...)
	return nil
}
func (d *fakeBatchDisk) WriteAsync(key string, value []byte, done func(error)) {
	if d.failNow[key] {
		done(errFailNow)
		return
	}
	d.ops = append(d.ops, "w "+key)
	d.data[key] = append([]byte(nil), value...)
	d.staged = append(d.staged, done)
}
func (d *fakeBatchDisk) DeleteAsync(key string, done func(error)) {
	d.ops = append(d.ops, "d "+key)
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

	t.Run("blocking-pessimistic", func(t *testing.T) {
		env := &batchEnv{disk: newFakeBatchDisk()}
		l := New(env, Config{Strategy: BlockingPessimistic, Disk: InstantDisk()})
		completed := false
		l.LogAndSend("dst", &blob{}, Entry{Key: l.Key("1"), Data: []byte("x")}, func() { completed = true })
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
		l.LogAndSend("dst", &blob{}, Entry{Key: l.Key("1"), Data: []byte("x")}, func() { completed = true })
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
		l.LogAndSend("dst", &blob{}, Entry{Key: l.Key("1"), Data: []byte("x")}, func() { completed = true })
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
		l.LogAndSend("dst", &blob{Data: []byte(k)}, Entry{Key: l.Key(k), Data: []byte(k)}, nil)
	}
	w.RunFor(time.Second)
	keys := l.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("keys = %v", keys)
	}
	v, ok := l.Get("b")
	if !ok || string(v.Data) != "b" {
		t.Fatalf("Get(b) = %q,%v", v.Data, ok)
	}
}

func TestGC(t *testing.T) {
	w, _, _, l := rig(t, BlockingPessimistic, fixedDisk(0))
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("%d", i)
		l.LogAndSend("dst", &blob{}, Entry{Key: l.Key(k), Data: []byte(k)}, nil)
	}
	w.RunFor(time.Second)
	for _, k := range []string{"0", "1", "2", "2", "never-logged"} {
		l.Drop(l.Key(k)) // dropping twice, or what was never there, is a no-op
	}
	if keys := l.Keys(); l.Len() != 3 || len(keys) != 3 || keys[0] != "3" {
		t.Fatalf("after dropping 0..2: Len %d, keys %v; want 3 entries from 3 up", l.Len(), keys)
	}
	// An entry dropped before its modelled write fires never lands.
	slow := New(l.env, Config{Prefix: "slow/", Strategy: Optimistic, Disk: fixedDisk(time.Second)})
	slow.LogAndSend("dst", &blob{}, Entry{Key: slow.Key("x"), Data: []byte("x")}, nil)
	slow.Drop(slow.Key("x"))
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
	l.LogAndSend("dst", &blob{}, Entry{Key: l.Key("1"), Data: []byte("x")}, nil)
	l.Close()
	w.RunFor(time.Second)
	if l.Len() != 0 {
		t.Fatal("flush fired after Close")
	}
}

// commitOne fires the oldest staged callback alone: a group commit that
// closed between two staged operations.
func (d *fakeBatchDisk) commitOne() {
	f := d.staged[0]
	d.staged = d.staged[1:]
	if f != nil {
		f(nil)
	}
}

func submitOf(seq int, size int) *proto.Submit {
	params := make([]byte, size)
	for i := range params {
		params[i] = byte(i*7 + seq)
	}
	return &proto.Submit{Call: proto.CallID{User: "u", Session: 1, Seq: proto.RPCSeq(seq)}, Service: "echo",
		Params: params, ExecTime: time.Second, ResultSize: size}
}

// A large entry is two staged writes, payload first, and every
// strategy's completion point is the header's commit: a commit that
// took the payload alone completes nothing.
func TestSplitEntryCompletesOnTheHeadersCommit(t *testing.T) {
	for _, strategy := range []Strategy{BlockingPessimistic, NonBlockingPessimistic} {
		env := &batchEnv{disk: newFakeBatchDisk()}
		l := New(env, Config{Strategy: strategy, Disk: InstantDisk()})
		msg := submitOf(1, 64<<10)
		completed := false
		l.LogAndSend("dst", msg, EntryOf(l.Key("1"), msg), func() { completed = true })
		if len(env.disk.staged) != 2 {
			t.Fatalf("%v: %d staged writes for a 64 KiB entry, want payload and header", strategy, len(env.disk.staged))
		}
		if e, ok := l.Get("1"); !ok || len(e.Data) > 128 || len(e.Blobs[0]) != 64<<10 {
			t.Fatalf("%v: staged entry: present %v, header %d B, payload %d B", strategy, ok, len(e.Data), len(e.Blobs[0]))
		}
		env.disk.commitOne()
		if completed || (strategy == BlockingPessimistic && len(env.sent) != 0) {
			t.Fatalf("%v: acted on the payload's commit, before the header's", strategy)
		}
		env.disk.commitOne()
		if !completed || len(env.sent) != 1 {
			t.Fatalf("%v: after the header's commit: completed %v, sent %d", strategy, completed, len(env.sent))
		}
	}
}

// A strategy completes its entries in the order they were staged, and
// an entry whose write fails at once is no exception: it completes in
// its turn, behind the entries staged before it, and a blocking send
// it withholds stays withheld.
func TestCompletionsInStagingOrder(t *testing.T) {
	for _, strategy := range []Strategy{Optimistic, BlockingPessimistic, NonBlockingPessimistic} {
		env := &batchEnv{disk: newFakeBatchDisk()}
		l := New(env, Config{Strategy: strategy, Disk: InstantDisk()})
		env.disk.failNow = map[string]bool{"blob/" + l.Key("3"): true}
		var order []int
		for seq := 1; seq <= 5; seq++ {
			size := 64
			if seq == 3 {
				size = 64 << 10 // its payload is the write that fails
			}
			msg := submitOf(seq, size)
			l.LogAndSend("dst", msg, EntryOf(l.Key(fmt.Sprint(seq)), msg), func() { order = append(order, seq) })
		}
		env.disk.commitOne() // entry 1's header
		env.disk.commit()
		if want := []int{1, 2, 3, 4, 5}; !reflect.DeepEqual(order, want) {
			t.Errorf("%v: entries completed in the order %v, want %v", strategy, order, want)
		}
		want := 5
		if strategy == BlockingPessimistic {
			want = 4 // entry 3 never became durable: its send is withheld
		}
		if len(env.sent) != want {
			t.Errorf("%v: %d messages sent, want %d", strategy, len(env.sent), want)
		}
		if _, ok := l.Get("3"); ok {
			t.Errorf("%v: the entry whose payload failed has a header", strategy)
		}
	}
}

// The order rules, as the disk sees them: payload before header going
// in, payload before header going out, and a small entry is one key.
func TestEntryOrderOnTheDisk(t *testing.T) {
	env := &batchEnv{disk: newFakeBatchDisk()}
	big, small := submitOf(1, 64<<10), submitOf(2, 64)
	if err := Messages.Stage(env, EntryOf("log/1", big), nil, func(error) {}); err != nil {
		t.Fatal(err)
	}
	if err := Messages.Write(env, EntryOf("log/2", big)); err != nil {
		t.Fatal(err)
	}
	if err := Messages.Stage(env, EntryOf("log/3", small), nil, func(error) {}); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"log/1", "log/2", "log/3"} {
		held, _ := env.disk.Read(key)
		Messages.Remove(env, key, held, func(error) {})
	}
	want := []string{
		"w blob/log/1", "w log/1", "w blob/log/2", "w log/2", "w log/3",
		"d blob/log/1", "d log/1", "d blob/log/2", "d log/2", "d log/3",
	}
	if !reflect.DeepEqual(env.disk.ops, want) {
		t.Fatalf("disk saw\n%v\nwant\n%v", env.disk.ops, want)
	}
}

// crashRun is one incarnation of the oracle's scenario: entries of every
// size class logged, two of them dropped, one logged after a drop.
type crashRun struct {
	logged    map[string]*proto.Submit
	completed map[string]bool // the strategy's completion fired: before the cut (true) or after it
	dropped   map[string]bool // Drop was asked for
}

func runCrashScenario(d *nodetest.CrashDisk, strategy Strategy) crashRun {
	env := nodetest.NewEnv("src", d.Disk)
	l := New(env, Config{Prefix: "log/", Strategy: strategy, Disk: InstantDisk()})
	r := crashRun{logged: map[string]*proto.Submit{}, completed: map[string]bool{}, dropped: map[string]bool{}}
	log := func(seq, size int) {
		key := fmt.Sprint(seq)
		msg := submitOf(seq, size)
		r.logged[key] = msg
		l.LogAndSend("dst", msg, EntryOf(l.Key(key), msg), func() { r.completed[key] = !d.Cut.Off })
		env.Advance(time.Millisecond) // a disk that does not batch writes on a timer
	}
	drop := func(seq int) {
		r.dropped[fmt.Sprint(seq)] = true
		l.Drop(l.Key(fmt.Sprint(seq)))
	}
	log(1, 64)
	log(2, 64<<10)
	log(3, proto.BlobMin)
	drop(2)
	log(4, 64<<10)
	drop(1)
	drop(4)
	return r
}

// checkRecovered is the oracle: over what a crash left, every entry
// decodes to exactly the message that was logged under its key or is
// refused as corrupt — never other bytes — no payload is without its
// header once a log has been opened, and — durable: a pessimistic
// strategy with nothing but a power cut gone wrong — an entry whose
// completion fired and that nobody dropped is there whole.
func checkRecovered(t *testing.T, at string, disk node.Disk, r crashRun, durable bool) {
	t.Helper()
	env := nodetest.NewEnv("src", disk)
	l := New(env, Config{Prefix: "log/", Disk: InstantDisk()})
	whole := map[string]bool{}
	var dec proto.Decoder
	for _, key := range l.Keys() {
		e, ok := l.Get(key)
		if !ok {
			t.Fatalf("%s: key %s listed and not readable", at, key)
		}
		msg, err := e.Message(&dec)
		switch {
		case err == nil && !reflect.DeepEqual(msg, proto.Message(r.logged[key])):
			t.Fatalf("%s: entry %s recovered with other bytes than were logged", at, key)
		case err != nil && !errors.Is(err, proto.ErrCorrupt):
			t.Fatalf("%s: entry %s: %v", at, key, err)
		}
		whole[key] = err == nil
	}
	if l.Len() != len(whole) {
		t.Fatalf("%s: Len %d, %d keys", at, l.Len(), len(whole))
	}
	for _, k := range disk.Keys(Messages.Blobs) {
		if _, ok := disk.Read(k[len(Messages.Blobs):]); !ok {
			t.Fatalf("%s: payload %s survived recovery without a header", at, k)
		}
	}
	for key, before := range r.completed {
		if before && durable && !r.dropped[key] && !whole[key] {
			t.Fatalf("%s: entry %s completed before the cut and is not recovered", at, key)
		}
	}
}

// TestCrashOracle restarts a log at every operation index of the
// scenario (nodetest.EveryCrash), under each strategy.
func TestCrashOracle(t *testing.T) {
	for _, strategy := range []Strategy{Optimistic, NonBlockingPessimistic, BlockingPessimistic} {
		if r := runCrashScenario(nodetest.NewCrashDisk(t, "memory"), strategy); len(r.completed) != 4 {
			t.Fatalf("%v: uncut run completed %d entries of 4", strategy, len(r.completed))
		}
		pessimistic := strategy != Optimistic // optimistic completion promises nothing
		nodetest.EveryCrash(t,
			func(d *nodetest.CrashDisk) crashRun { return runCrashScenario(d, strategy) },
			func(at string, disk node.Disk, r crashRun, onlyACut bool) {
				checkRecovered(t, fmt.Sprintf("%v, %s", strategy, at), disk, r, onlyACut && pessimistic)
			})
	}
}

// The log's half of the give-back order (the coordinator's job table is
// the other, TestHeadersGoBackOnlyOnceTheStoreLetGo): a logged header
// that a relog of its key replaces, or that Drop removes, keeps its
// bytes until that write or delete has completed, however many entries
// are encoded meanwhile, and a failed or torn write and a failed delete
// give nothing back. A header given back early is drawn from proto's
// pool by the encodes in between and written over, in every build.
func TestLoggedHeadersGoBackOnlyOnceTheStoreLetGo(t *testing.T) {
	d := nodetest.NewHandDisk()
	l := New(nodetest.NewEnv("src", d), Config{Strategy: NonBlockingPessimistic})
	key := l.Key("1")
	logged := func(seq int) {
		l.LogAndSend("dst", submitOf(seq, 64), EntryOf(key, submitOf(seq, 64)), nil)
	}
	held := func() (v, now []byte) {
		v, ok := d.Data[key]
		if !ok {
			t.Fatalf("%s is not on the disk", key)
		}
		return v, bytes.Clone(v)
	}
	intact := func(header, want []byte, what string) {
		t.Helper()
		for n := range 512 { // entries of every size around the one under test
			EntryOf(l.Key("churn"), submitOf(n+10, n))
		}
		if !bytes.Equal(header, want) {
			t.Fatalf("a header %s was given back: its bytes changed", what)
		}
	}

	logged(1)
	d.Complete()
	first, want := held()
	logged(2)
	intact(first, want, "that a staged relog replaced")
	d.Complete()

	for seq, fault := range []string{3: "fail", 4: "torn"} {
		if fault == "" {
			continue
		}
		replaced, want := held()
		d.Faults[key] = fault
		logged(seq)
		d.Complete()
		intact(replaced, want, "that a relog replaced ("+fault+")")
	}

	logged(5)
	d.Complete()
	last, want := held()
	l.Drop(key)
	intact(last, want, "whose staged drop had not completed")
	d.Complete()

	logged(6)
	d.Complete()
	last, want = held()
	d.Faults[key] = "fail"
	l.Drop(key)
	d.Complete()
	intact(last, want, "whose drop failed")
	if v, ok := d.Data[key]; !ok || &v[0] != &last[0] {
		t.Fatal("the header whose drop failed is not on the disk as it was")
	}
}
