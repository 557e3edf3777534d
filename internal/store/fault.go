package store

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInjected is the root of every error produced by a fault-injecting
// store wrapper. Callers distinguish injected faults from real disk
// failures with errors.Is(err, ErrInjected).
var ErrInjected = errors.New("store: injected disk fault")

// FaultStats counts the faults a plan has actually delivered.
type FaultStats struct {
	FailedOps  int // durable ops that returned an injected error
	TornOps    int // ops that wrote a truncated value then errored
	StalledOps int // ops delayed by the configured stall
}

// FaultPlan is a mutable, concurrency-safe schedule of disk faults for
// a wrapped store (WithFaults). The chaos harness arms it from outside
// the node while the node is live:
//
//   - FailCommits(n): the nth durable operation from now fails with
//     ErrInjected, and — like a real device that went away — every
//     later durable operation keeps failing until Heal. This is the
//     "fail the Nth fsync" fault: with the WAL engine the error
//     surfaces from inside a group commit, exercising the sticky
//     broken-log path and recovery on reopen.
//   - TornWrites(n): the nth durable write persists only a prefix of
//     its value to the inner store, then reports ErrInjected — a torn
//     write observed as a failure.
//   - StallCommits(d): every durable operation is delayed by d. For
//     synchronous Write/Delete/Sync the caller blocks (a seized
//     spindle); for WriteAsync the delay runs inside the completion
//     callback — on the WAL engine that is the committer goroutine
//     itself, so the stall lands mid-group-commit and every batch
//     staged behind it queues up, which is exactly the
//     slow-disk-under-live-load regime the harness wants.
//
// Reads are never faulted: the taxonomy targets durability, and the
// in-memory index both engines keep would mask read faults anyway.
type FaultPlan struct {
	mu        sync.Mutex
	failAfter int // countdown to sticky failure; 0 = disarmed
	broken    bool
	tornAfter int // countdown to one torn write; 0 = disarmed
	stall     time.Duration
	stats     FaultStats
}

// FailCommits arms the plan to fail the nth durable operation from now
// (n >= 1) and every one after it, until Heal.
func (p *FaultPlan) FailCommits(n int) {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	p.failAfter = n
	p.mu.Unlock()
}

// TornWrites arms the plan to truncate the nth durable write from now
// (n >= 1): half the value reaches the inner store, the caller gets
// ErrInjected. One-shot; later ops proceed normally.
func (p *FaultPlan) TornWrites(n int) {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	p.tornAfter = n
	p.mu.Unlock()
}

// StallCommits delays every durable operation by d. Zero disarms.
func (p *FaultPlan) StallCommits(d time.Duration) {
	p.mu.Lock()
	p.stall = d
	p.mu.Unlock()
}

// Heal clears the sticky failure and every armed countdown. The store
// works again (the inner engine permitting — a WAL whose commit really
// failed stays broken until reopened).
func (p *FaultPlan) Heal() {
	p.mu.Lock()
	p.failAfter, p.broken, p.tornAfter, p.stall = 0, false, 0, 0
	p.mu.Unlock()
}

// Broken reports whether the sticky failure has triggered.
func (p *FaultPlan) Broken() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.broken
}

// Stats returns the faults delivered so far.
func (p *FaultPlan) Stats() FaultStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

type faultAction int

const (
	faultNone faultAction = iota
	faultFail
	faultTorn
)

// next charges one durable operation against the plan and returns what
// to do with it plus how long to stall it.
func (p *FaultPlan) next() (faultAction, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.stall
	if d > 0 {
		p.stats.StalledOps++
	}
	if p.broken {
		p.stats.FailedOps++
		return faultFail, d
	}
	if p.failAfter > 0 {
		p.failAfter--
		if p.failAfter == 0 {
			p.broken = true
			p.stats.FailedOps++
			return faultFail, d
		}
	}
	if p.tornAfter > 0 {
		p.tornAfter--
		if p.tornAfter == 0 {
			p.stats.TornOps++
			return faultTorn, d
		}
	}
	return faultNone, d
}

// WithFaults interposes plan between callers and an already-open store.
//
// Ordering matters and is the reason this wrapper takes a Store rather
// than opening one itself: the inner engine must run its own
// directory-refusal check (OpenWAL refuses a files-engine directory)
// before any fault plumbing attaches. Open the engine first and wrap
// what it returns; a directory holding foreign data then fails at open
// exactly as it would without the wrapper.
//
// The wrapper passes reads through untouched and does not forward
// optional interface (WALStats): a faulted store presents the
// minimal Store surface, and the runtime's type assertions degrade
// gracefully. A restart that reopens the directory without the wrapper
// (or with a fresh plan) heals all injected faults — only real damage
// persisted by the inner engine survives, which is what crash-recovery
// scenarios want to observe.
func WithFaults(inner Store, plan *FaultPlan) Store {
	if plan == nil {
		plan = &FaultPlan{}
	}
	return &faulty{inner: inner, plan: plan}
}

type faulty struct {
	inner Store
	plan  *FaultPlan
}

func (f *faulty) Write(key string, value []byte) error {
	act, d := f.plan.next()
	if d > 0 {
		time.Sleep(d)
	}
	switch act {
	case faultFail:
		return fmt.Errorf("%w: write %q", ErrInjected, key)
	case faultTorn:
		// Persist a prefix so the directory really holds torn data,
		// then report the failure. The write error is the signal the
		// caller acts on; the inner error (if any) is secondary.
		_ = f.inner.Write(key, value[:len(value)/2]) // deliberate: op reports ErrInjected regardless
		return fmt.Errorf("%w: torn write %q (%d of %d bytes)", ErrInjected, key, len(value)/2, len(value))
	}
	return f.inner.Write(key, value)
}

func (f *faulty) Delete(key string) error {
	act, d := f.plan.next()
	if d > 0 {
		time.Sleep(d)
	}
	if act != faultNone {
		return fmt.Errorf("%w: delete %q", ErrInjected, key)
	}
	return f.inner.Delete(key)
}

func (f *faulty) Read(key string) ([]byte, bool) { return f.inner.Read(key) }
func (f *faulty) Keys(prefix string) []string    { return f.inner.Keys(prefix) }

// WriteAsync stages through the inner engine and applies the fault in
// the completion callback. On the WAL engine that callback runs on the
// committer goroutine, so a stall configured here blocks the group
// commit itself — later batches pile up behind it exactly as they
// would behind a slow device. Ordering and exactly-once delivery of
// done are inherited from the inner engine.
func (f *faulty) WriteAsync(key string, value []byte, done func(error)) {
	act, d := f.plan.next()
	if act == faultTorn {
		value = value[:len(value)/2]
	}
	f.inner.WriteAsync(key, value, func(err error) {
		if d > 0 {
			time.Sleep(d)
		}
		switch {
		case act == faultFail && err == nil:
			err = fmt.Errorf("%w: write %q", ErrInjected, key)
		case act == faultTorn && err == nil:
			err = fmt.Errorf("%w: torn write %q", ErrInjected, key)
		}
		done(err)
	})
}

// DeleteAsync is Delete on the staged path: a faulted delete never
// reaches the inner engine — the key stays, as it does when Delete
// fails — and the stall runs inside the completion callback, as
// WriteAsync's does.
func (f *faulty) DeleteAsync(key string, done func(error)) {
	act, d := f.plan.next()
	finish := func(err error) {
		if d > 0 {
			time.Sleep(d)
		}
		done(err)
	}
	if act != faultNone {
		finish(fmt.Errorf("%w: delete %q", ErrInjected, key))
		return
	}
	f.inner.DeleteAsync(key, finish)
}

func (f *faulty) Sync() error {
	act, d := f.plan.next()
	if d > 0 {
		time.Sleep(d)
	}
	if act != faultNone {
		return fmt.Errorf("%w: sync", ErrInjected)
	}
	return f.inner.Sync()
}

func (f *faulty) Close() error { return f.inner.Close() }
