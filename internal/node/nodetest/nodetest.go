// Package nodetest drives one node.Handler by hand in tests that crash
// it at chosen points: an Env with no event loop and no network, and a
// store that loses power after a set number of operations.
package nodetest

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/proto"
	"rpcv/internal/store"
)

// Env is a node.Env whose clock moves only in Advance, which fires the
// timers that fall due in deadline order; Send is captured for Take and
// Logf for Logs.
type Env struct {
	id     proto.NodeID
	disk   node.Disk
	sent   []proto.Message
	logs   []string
	now    time.Time
	rng    *rand.Rand
	timers []*timer
}

type timer struct {
	at      time.Time
	fn      func()
	stopped bool
}

func (t *timer) Stop() { t.stopped = true }

// NewEnv returns an Env for node id over disk.
func NewEnv(id proto.NodeID, disk node.Disk) *Env {
	return &Env{id: id, disk: disk, now: time.Unix(1_700_000_000, 0), rng: rand.New(rand.NewSource(1))}
}

var _ node.Env = (*Env)(nil)

func (e *Env) Self() proto.NodeID                   { return e.id }
func (e *Env) Now() time.Time                       { return e.now }
func (e *Env) Disk() node.Disk                      { return e.disk }
func (e *Env) Rand() *rand.Rand                     { return e.rng }
func (e *Env) Logf(f string, a ...any)              { e.logs = append(e.logs, fmt.Sprintf(f, a...)) }
func (e *Env) Send(_ proto.NodeID, m proto.Message) { e.sent = append(e.sent, m) }
func (e *Env) After(d time.Duration, fn func()) node.Timer {
	t := &timer{at: e.now.Add(d), fn: fn}
	// Sorted by deadline, first armed first among equals.
	i := sort.Search(len(e.timers), func(i int) bool { return e.timers[i].at.After(t.at) })
	e.timers = slices.Insert(e.timers, i, t)
	return t
}

// Advance moves the clock by d, firing the timers that fall due.
func (e *Env) Advance(d time.Duration) {
	end := e.now.Add(d)
	for len(e.timers) > 0 && !e.timers[0].at.After(end) {
		t := e.timers[0]
		e.timers = e.timers[1:]
		if !t.stopped {
			e.now = t.at
			t.fn()
		}
	}
	e.now = end
}

// Take returns what was sent since the last Take.
func (e *Env) Take() []proto.Message {
	out := e.sent
	e.sent = nil
	return out
}

// Logs returns every line logged so far, across Reboots.
func (e *Env) Logs() []string { return e.logs }

// Reboot starts the node's next incarnation over disk: the timers and
// the unsent messages of the last one die with it, while the clock, the
// random stream and the log lines go on.
func (e *Env) Reboot(disk node.Disk) {
	e.disk, e.timers, e.sent = disk, nil, nil
}

// PowerCut is a store that loses power after Left more writes and
// deletes (never, while Left is negative): each later one reports
// success to a process that is about to die, completes no staged call
// and never reaches the store underneath. Ops counts every write and
// delete asked for, so a first, uncut run sizes the sweep of a second;
// Off says that one has been swallowed — whatever the handler does from
// then on, the process it models did not live to do.
type PowerCut struct {
	store.Store
	Left int
	Ops  int
	Off  bool
}

func (c *PowerCut) gone() bool {
	c.Ops++
	if c.Left < 0 {
		return false
	}
	if c.Left > 0 {
		c.Left--
		return false
	}
	c.Off = true
	return true
}

func (c *PowerCut) Write(key string, value []byte) error {
	if c.gone() {
		return nil
	}
	return c.Store.Write(key, value)
}

func (c *PowerCut) Delete(key string) error {
	if c.gone() {
		return nil
	}
	return c.Store.Delete(key)
}

func (c *PowerCut) WriteAsync(key string, value []byte, done func(error)) {
	if !c.gone() {
		c.Store.WriteAsync(key, value, done)
	}
}

func (c *PowerCut) DeleteAsync(key string, done func(error)) {
	if !c.gone() {
		c.Store.DeleteAsync(key, done)
	}
}

// CrashDisk is one node's disk across a crash. Engine "memory" is a
// batching disk whose staged calls complete at once; "wal" is a real
// log in a temporary directory, shown to the handler as a disk that
// does not batch (every write its own commit, so no completion needs
// marshalling onto a loop); "batch" is that log shown as the group
// commit it is (see Settle). The handler's incarnation runs over Disk,
// which passes through Cut and, beneath it, Plan's faults.
type CrashDisk struct {
	Disk node.Disk
	Cut  *PowerCut
	Plan *store.FaultPlan

	tb     testing.TB
	inner  store.Store
	reopen func() store.Store // nil: inner survives as it is
	batch  *batchDisk         // engine "batch"
}

// NewCrashDisk opens engine with no fault armed.
func NewCrashDisk(tb testing.TB, engine string) *CrashDisk {
	tb.Helper()
	d := &CrashDisk{tb: tb, Plan: &store.FaultPlan{}}
	switch engine {
	case "memory":
		d.inner = store.NewMemory()
	case "wal", "batch":
		dir := tb.TempDir()
		d.reopen = func() store.Store {
			w, err := store.OpenWAL(dir, store.WALOptions{})
			if err != nil {
				tb.Fatal(err)
			}
			return w
		}
		d.inner = d.reopen()
		tb.Cleanup(func() { _ = d.inner.Close() }) // a test's last read is done; nothing to lose
	default:
		tb.Fatalf("nodetest: engine %q", engine)
	}
	d.Cut = &PowerCut{Store: store.WithFaults(d.inner, d.Plan), Left: -1}
	switch engine {
	case "memory":
		d.Disk = d.Cut
	case "wal":
		d.Disk = struct{ node.Disk }{d.Cut}
	case "batch":
		d.batch = &batchDisk{cut: d.Cut, log: d.inner, view: map[string]stagedOp{}}
		d.Disk = d.batch
	}
	return d
}

// Settle is one turn of engine "batch"'s group commit, pipelined as a
// committer goroutine pipelines it behind a node's loop: first the loop
// — the test — runs the completions of the batch the previous Settle
// committed, in staging order, and then what the handler staged since
// is handed to the log and made durable; its completions wait for the
// next Settle. Until its commit a staged write or delete is visible to
// reads and nothing more: a crash before then loses it, as power lost
// before an fsync loses a batch, and a completion always arrives while
// the writes staged after it may still be lost. A handler that answers
// for a write before that write's own completion has run is caught
// answering for something the recovered disk does not hold. On the
// other engines Settle does nothing.
func (d *CrashDisk) Settle() {
	if d.batch != nil {
		d.batch.settle()
	}
}

// Recover ends the incarnation and returns the disk as the next one
// finds it — a WAL closed and replayed from its directory — with every
// fault gone.
func (d *CrashDisk) Recover() node.Disk {
	d.tb.Helper()
	if d.reopen == nil {
		return d.inner
	}
	if err := d.inner.Close(); err != nil {
		d.tb.Fatal(err)
	}
	d.inner = d.reopen()
	return struct{ node.Disk }{d.inner}
}

// EveryCrash holds one scenario to one oracle at every crash point. run
// drives a fresh incarnation over d.Disk through the whole scenario and
// returns what it saw; check gets the disk as the next incarnation finds
// it. It runs uncut, then — for each of the uncut run's k writes and
// deletes — with the power cut before the k-th and with the k-th torn or
// failed, on each engine: by default the memory store and a WAL.
// onlyACut tells check that nothing but the cut went wrong, so what run
// saw complete before d.Cut.Off is durable.
func EveryCrash[R any](t *testing.T, run func(d *CrashDisk) R, check func(at string, recovered node.Disk, r R, onlyACut bool), engines ...string) {
	t.Helper()
	if len(engines) == 0 {
		engines = []string{"memory", "wal"}
	}
	for _, engine := range engines {
		clean := NewCrashDisk(t, engine)
		r := run(clean)
		check(engine+" uncut", clean.Recover(), r, true)
		for k := 0; k < clean.Cut.Ops; k++ {
			d := NewCrashDisk(t, engine)
			d.Cut.Left = k
			r := run(d)
			check(fmt.Sprintf("%s cut after %d ops", engine, k), d.Recover(), r, true)

			d = NewCrashDisk(t, engine)
			d.Plan.TornWrites(k + 1)
			r = run(d)
			check(fmt.Sprintf("%s op %d torn", engine, k+1), d.Recover(), r, false)
		}
	}
}

// batchDisk is engine "batch": a group-commit disk whose batch is handed
// to the log only at Settle. Everything happens on the test's goroutine
// except the log's completions, which done collects for the next
// Settle to run.
type batchDisk struct {
	cut  *PowerCut   // where a commit hands its batch
	log  store.Store // beneath the cut and the faults: the commit's barrier
	ops  []stagedOp  // staged since the last commit, oldest first
	view map[string]stagedOp

	mu   sync.Mutex
	done []func()
}

// stagedOp is one write (del false) or delete awaiting its commit.
type stagedOp struct {
	key  string
	val  []byte
	del  bool
	done func(error)
}

var _ node.BatchDisk = (*batchDisk)(nil)

func (b *batchDisk) WriteAsync(key string, value []byte, done func(error)) {
	b.stage(stagedOp{key: key, val: value, done: done})
}

func (b *batchDisk) DeleteAsync(key string, done func(error)) {
	b.stage(stagedOp{key: key, del: true, done: done})
}

func (b *batchDisk) stage(op stagedOp) {
	b.ops = append(b.ops, op)
	b.view[op.key] = op
}

// Write and Delete are durable when they return, so they commit what
// was staged before them too (its completions wait for Settle).
func (b *batchDisk) Write(key string, value []byte) error {
	b.hand()
	return b.cut.Write(key, value)
}

func (b *batchDisk) Delete(key string) error {
	b.hand()
	return b.cut.Delete(key)
}

func (b *batchDisk) Sync() error {
	b.hand()
	return b.log.Sync()
}

func (b *batchDisk) Read(key string) ([]byte, bool) {
	if op, ok := b.view[key]; ok {
		return op.val, !op.del
	}
	return b.cut.Read(key)
}

func (b *batchDisk) Keys(prefix string) []string {
	keys := slices.DeleteFunc(b.cut.Keys(prefix), func(k string) bool { _, ok := b.view[k]; return ok })
	for k, op := range b.view {
		if !op.del && strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// hand gives the staged operations to the log, in order. Once the power
// is off the log takes nothing, and reads keep being served what the
// dead process staged.
func (b *batchDisk) hand() {
	for _, op := range b.ops {
		if op.del {
			b.cut.DeleteAsync(op.key, b.completion(op.done))
		} else {
			b.cut.WriteAsync(op.key, op.val, b.completion(op.done))
		}
	}
	b.ops = b.ops[:0]
	if !b.cut.Off {
		clear(b.view)
	}
}

// completion collects an operation's outcome, from whichever goroutine
// the log reports it on, for the next Settle to run.
func (b *batchDisk) completion(done func(error)) func(error) {
	return func(err error) {
		b.mu.Lock()
		b.done = append(b.done, func() { done(err) })
		b.mu.Unlock()
	}
}

func (b *batchDisk) settle() {
	b.mu.Lock()
	run := b.done
	b.done = nil
	b.mu.Unlock()
	for _, fn := range run {
		fn()
	}
	b.hand()
	_ = b.log.Sync() // a barrier only: a broken log has completed what it failed
}
