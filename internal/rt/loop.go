package rt

// The multi-core runtime: a Runtime hosts Config.Loops event loops,
// each a goroutine owning one partition of the handler (see
// node.PartitionedHandler). Sessions are hash-pinned to a loop with
// the same consistent-hash construction the shard layer uses for
// coordinator rings (shard.LoopMap), so every message of one (user,
// session) pair executes on one loop and the handlers keep their
// no-locking discipline per loop.
//
// Each loop owns three inbound paths:
//
//   - mailbox: a bounded channel fed by external producers — transport
//     delivery, Do/DoOn/Ping, admin scrapes. External producers may
//     block briefly when a loop falls behind (backpressure). Its entries
//     are typed (mail): a received envelope travels as its sender and
//     message, not as a closure over them, so delivering a message
//     allocates nothing; a function to run travels as itself. The
//     channel holds mailboxBytes of entries, not a count of them.
//   - ring: an unbounded lock-free MPSC handoff ring (Vyukov intrusive
//     queue) + a 1-buffered wake doorbell, fed by producers that must
//     NEVER block: the store committer completing per-loop WriteAsync
//     callbacks (a blocked committer would deadlock a loop waiting in
//     a synchronous Write), cross-loop handoffs, and the goroutines of
//     offloaded work handing back their completion (rtEnv.Offload; one
//     that finishes after Close must end, not wait on a dead loop).
//     post() is the only way onto it.
//   - timers: a per-loop min-heap of deadlines; the loop arms a single
//     runtime timer to the earliest one. After/Stop run on the owning
//     loop, so the heap lock is uncontended.
//
// Each loop also gets its own RNG (seeded per loop — see the
// rtEnv.Rand race fix) and its own store lane when the engine supports
// per-loop staging (store.Laner): stage under a lane-private lock, one
// shared committer fsync covering every loop's batch.

import (
	"container/heap"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"rpcv/internal/node"
	"rpcv/internal/proto"
	"rpcv/internal/store"
)

// mail is one mailbox entry: a received envelope (msg and its sender)
// for the handler's Receive, or, with msg nil, a function to run.
type mail struct {
	from proto.NodeID
	msg  proto.Message
	fn   func()
}

// mailboxBytes is the size of each loop's mailbox buffer: what 1 024
// closures took when an entry was one. A process may host several
// runtimes (a test grid, the benchmark's), each with a buffer per loop
// for its whole life, so a wider entry buys fewer slots rather than
// more memory; a full mailbox only makes the connection readers wait.
const (
	mailboxBytes = 1024 * 8
	mailboxSlots = mailboxBytes / int(unsafe.Sizeof(mail{}))
)

// loop is one per-core event loop.
type loop struct {
	idx     int
	r       *Runtime
	handler node.Handler

	mailbox chan mail
	ring    mpscRing
	wake    chan struct{} // 1-buffered doorbell for the ring

	rng   *rand.Rand
	store store.Store // per-loop lane, or the shared engine
	disk  node.Disk
	env   *rtEnv

	tmu    sync.Mutex
	timers timerHeap

	// Scrape-time counters (atomics: read off-loop by obs funcs).
	tasks    atomic.Uint64 // closures executed on the loop
	handoffs atomic.Uint64 // ring posts (cross-loop / committer traffic)
}

// post puts fn on the loop's lock-free handoff ring and rings the
// doorbell. It never blocks, whatever the loop is doing — the path for
// producers that must not stall: the store committer, other loops and
// offloaded work.
func (l *loop) post(fn func()) {
	l.ring.push(fn)
	l.handoffs.Add(1)
	select {
	case l.wake <- struct{}{}:
	default: // doorbell already rung
	}
}

// run is the loop goroutine: execute mailbox work, drain ring
// handoffs, fire due timers, exit on quit after draining what is
// already queued.
func (l *loop) run() {
	defer l.r.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	for {
		var timerC <-chan time.Time
		if wait, ok := l.nextTimer(); ok {
			if armed && !timer.Stop() {
				<-timer.C
			}
			timer.Reset(wait)
			armed = true
			timerC = timer.C
		} else if armed {
			if !timer.Stop() {
				<-timer.C
			}
			armed = false
		}
		select {
		case m := <-l.mailbox:
			l.handle(m)
		case <-l.wake:
			l.drainRing()
		case <-timerC:
			armed = false
			l.fireDue()
		case <-l.r.quit:
			l.drainPending()
			return
		}
	}
}

// handle executes one mailbox entry.
func (l *loop) handle(m mail) {
	l.tasks.Add(1)
	if m.msg != nil {
		l.handler.Receive(m.from, m.msg)
		return
	}
	m.fn()
}

// drainRing executes everything currently on the handoff ring.
func (l *loop) drainRing() {
	for {
		fn, ok := l.ring.pop()
		if !ok {
			return
		}
		l.tasks.Add(1)
		fn()
	}
}

// drainPending empties the mailbox and ring once quit is closed, so
// work accepted before shutdown still executes.
func (l *loop) drainPending() {
	for {
		select {
		case m := <-l.mailbox:
			l.handle(m)
		default:
			l.drainRing()
			return
		}
	}
}

// ---------------------------------------------------------------------
// Per-loop timers
// ---------------------------------------------------------------------

// loopTimer is one pending After deadline on a loop's heap.
type loopTimer struct {
	l       *loop
	at      time.Time
	fn      func()
	heapIdx int // -1 once fired or stopped
}

// Stop implements node.Timer.
func (t *loopTimer) Stop() {
	t.l.tmu.Lock()
	if t.heapIdx >= 0 {
		heap.Remove(&t.l.timers, t.heapIdx)
		t.heapIdx = -1
	}
	t.l.tmu.Unlock()
}

// after registers fn to fire on this loop no earlier than d from now.
// Called on the owning loop (Env contract), so the loop re-arms its
// wait on the next select iteration without a cross-goroutine wake.
func (l *loop) after(d time.Duration, fn func()) node.Timer {
	t := &loopTimer{l: l, at: time.Now().Add(d), fn: fn}
	l.tmu.Lock()
	heap.Push(&l.timers, t)
	l.tmu.Unlock()
	return t
}

// nextTimer returns the wait until the earliest pending deadline.
func (l *loop) nextTimer() (time.Duration, bool) {
	l.tmu.Lock()
	defer l.tmu.Unlock()
	if len(l.timers) == 0 {
		return 0, false
	}
	wait := time.Until(l.timers[0].at)
	if wait < 0 {
		wait = 0
	}
	return wait, true
}

// fireDue pops and runs every timer whose deadline has passed.
func (l *loop) fireDue() {
	now := time.Now()
	for {
		l.tmu.Lock()
		if len(l.timers) == 0 || l.timers[0].at.After(now) {
			l.tmu.Unlock()
			return
		}
		t := heap.Pop(&l.timers).(*loopTimer)
		t.heapIdx = -1
		l.tmu.Unlock()
		l.tasks.Add(1)
		t.fn()
	}
}

// timerHeap is a min-heap of loopTimers by deadline.
type timerHeap []*loopTimer

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx, h[j].heapIdx = i, j }
func (h *timerHeap) Push(x any)        { t := x.(*loopTimer); t.heapIdx = len(*h); *h = append(*h, t) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// ---------------------------------------------------------------------
// Lock-free MPSC handoff ring
// ---------------------------------------------------------------------

// mpscRing is Vyukov's intrusive multi-producer single-consumer queue:
// producers do one atomic swap plus one atomic store (wait-free), the
// single consumer pops without atomics on its own side. Unbounded — a
// producer can always complete, which is the property the committer
// needs.
type mpscRing struct {
	head atomic.Pointer[ringNode] // producers swap themselves in here
	tail *ringNode                // consumer-owned
	stub ringNode
	once sync.Once
}

type ringNode struct {
	next atomic.Pointer[ringNode]
	fn   func()
}

func (q *mpscRing) init() {
	q.once.Do(func() {
		q.head.Store(&q.stub)
		q.tail = &q.stub
	})
}

// push enqueues fn. Safe from any goroutine, never blocks.
func (q *mpscRing) push(fn func()) {
	q.init()
	q.pushNode(&ringNode{fn: fn})
}

func (q *mpscRing) pushNode(n *ringNode) {
	n.next.Store(nil)
	prev := q.head.Swap(n)
	// Between the swap and this store the queue is momentarily
	// disconnected; pop reports empty and the producer's doorbell
	// (rung after push returns) re-drains.
	prev.next.Store(n)
}

// pop dequeues the oldest fn. Consumer-only.
func (q *mpscRing) pop() (func(), bool) {
	q.init()
	tail := q.tail
	next := tail.next.Load()
	if tail == &q.stub {
		if next == nil {
			return nil, false
		}
		q.tail = next
		tail = next
		next = tail.next.Load()
	}
	if next != nil {
		q.tail = next
		fn := tail.fn
		tail.fn = nil
		return fn, true
	}
	if tail != q.head.Load() {
		return nil, false // producer mid-push; its doorbell follows
	}
	q.pushNode(&q.stub)
	if next = tail.next.Load(); next != nil {
		q.tail = next
		fn := tail.fn
		tail.fn = nil
		return fn, true
	}
	return nil, false
}
