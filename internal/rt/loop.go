package rt

// The event loop: one goroutine runs everything the hosted handler
// does — Start, every Receive, every timer and completion, Stop — so
// the handler needs no locks, as under the simulator.
//
// The loop has three inbound paths:
//
//   - mailbox: a bounded channel fed by external producers — transport
//     delivery, Do/Ping, admin scrapes. External producers may block
//     briefly when the loop falls behind (backpressure). Its entries
//     are typed (mail): a received envelope travels as its sender and
//     message, not as a closure over them, so delivering a message
//     allocates nothing; a function to run travels as itself. The
//     channel holds mailboxBytes of entries, not a count of them.
//   - handoff queue: a mutex-guarded slice of functions + a 1-buffered
//     wake doorbell, fed by producers that must NEVER block: the store
//     committer completing WriteAsync callbacks (a committer blocked on
//     the mailbox would deadlock a loop waiting in a synchronous Write),
//     and the goroutines of offloaded work handing back their completion
//     (rtEnv.Offload; one that finishes after Close must end, not wait on
//     a dead loop). handoff is the only way onto it. The loop takes the
//     whole slice at once and leaves its spare in its place, so once both
//     have grown to the peak neither side allocates.
//   - timers: a min-heap of deadlines that only the loop touches; the
//     loop arms a single runtime timer to the earliest one. Their count
//     is an atomic, for scrapes from other goroutines.

import (
	"container/heap"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"rpcv/internal/node"
	"rpcv/internal/proto"
)

// mail is one mailbox entry: a received envelope (msg and its sender)
// for the handler's Receive, or, with msg nil, a function to run.
type mail struct {
	from proto.NodeID
	msg  proto.Message
	fn   func()
}

// mailboxBytes is the size of the loop's mailbox buffer: what 1 024
// closures took when an entry was one. A process may host several
// runtimes (a test grid, the benchmark's), each with a buffer for its
// whole life, so a wider entry buys fewer slots rather than more
// memory; a full mailbox only makes the connection readers wait.
const (
	mailboxBytes = 1024 * 8
	mailboxSlots = mailboxBytes / int(unsafe.Sizeof(mail{}))
)

// loop is the event loop's state, embedded in its Runtime: everything
// the loop goroutine owns, and the two doors other goroutines reach it
// by. Its behaviour is the Runtime's methods below.
type loop struct {
	handler node.Handler
	forgets bool // the handler is a node.Forgetter: the structs it receives and sends are recycled

	mailbox chan mail
	wake    chan struct{} // 1-buffered doorbell for the handoff queue
	qmu     sync.Mutex
	queue   []func() // guarded by qmu
	spare   []func() // loop-owned: the last drained array, emptied

	rng  *rand.Rand
	disk *loopDisk
	env  *rtEnv

	timers  timerHeap    // loop-only
	nTimers atomic.Int64 // len(timers), for off-loop readers

	// Scrape-time counters (atomics: read off-loop by obs funcs).
	tasks    atomic.Uint64 // closures executed on the loop
	handoffs atomic.Uint64 // functions handed to the queue: store completions and offloads' done
}

// receive schedules the handler's Receive on the loop, as a mailbox
// entry holding the envelope itself. Called from connection readers
// (external producers): the send may block briefly when the loop falls
// behind, which is the transport's backpressure.
func (r *Runtime) receive(from proto.NodeID, msg proto.Message) {
	select {
	case r.mailbox <- mail{from: from, msg: msg}:
	case <-r.quit:
	}
}

// handoff appends fn to the loop's handoff queue and rings the doorbell.
// It never blocks, whatever the loop is doing (the loop holds qmu only
// to swap the slice) — the path for producers that must not stall: the
// store committer and offloaded work. Each hands over a function bound
// once in a pooled record (asyncOp, offload), so the queue costs them
// nothing.
func (r *Runtime) handoff(fn func()) {
	r.qmu.Lock()
	r.queue = append(r.queue, fn)
	r.qmu.Unlock()
	r.handoffs.Add(1)
	select {
	case r.wake <- struct{}{}:
	default: // doorbell already rung
	}
}

// run is the loop goroutine: execute mailbox work, drain the handoff
// queue, fire due timers, exit on quit after draining what is already
// queued.
func (r *Runtime) run() {
	defer r.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	// The runtime timer waits for the earliest deadline, armedFor, and is
	// re-armed only when that deadline moves: re-arming modifies it under
	// its P's timer lock, and most mailbox entries move nothing.
	armed := false
	var armedFor time.Time
	for {
		var timerC <-chan time.Time
		if len(r.timers) > 0 {
			if at := r.timers[0].at; !armed || !at.Equal(armedFor) {
				if armed && !timer.Stop() {
					<-timer.C
				}
				timer.Reset(max(time.Until(at), 0))
				armed, armedFor = true, at
			}
			timerC = timer.C
		} else if armed {
			if !timer.Stop() {
				<-timer.C
			}
			armed = false
		}
		select {
		case m := <-r.mailbox:
			r.handle(m)
		case <-r.wake:
			r.drainQueue()
		case <-timerC:
			armed = false
			r.fireDue()
		case <-r.quit:
			r.drainPending()
			return
		}
	}
}

// handle executes one mailbox entry. A received message's struct goes
// back to the wire decoder once Receive has returned, if the handler
// promised to keep no pointer to it (node.Forgetter); a sent one goes
// back once its envelope has left (Runtime.sent).
func (r *Runtime) handle(m mail) {
	r.tasks.Add(1)
	if m.msg != nil {
		r.handler.Receive(m.from, m.msg)
		if r.forgets {
			recycle(m.msg)
		}
		return
	}
	m.fn()
}

// recycle is proto's pool of message structs; a test records what
// reaches it.
var recycle = proto.ReleaseMessage

// drainQueue executes everything on the handoff queue, in the order it
// was handed off. What is handed off meanwhile goes to the spare and
// rings the doorbell again.
func (r *Runtime) drainQueue() {
	r.qmu.Lock()
	fns := r.queue
	r.queue = r.spare
	r.qmu.Unlock()
	for i, fn := range fns {
		r.tasks.Add(1)
		fns[i] = nil
		fn()
	}
	r.spare = fns[:0]
}

// drainPending empties the mailbox and handoff queue once quit is
// closed, so work accepted before shutdown still executes.
func (r *Runtime) drainPending() {
	for {
		select {
		case m := <-r.mailbox:
			r.handle(m)
		default:
			r.drainQueue()
			return
		}
	}
}

// ---------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------

// loopTimer is one pending After deadline on the loop's heap.
type loopTimer struct {
	r       *Runtime
	at      time.Time
	fn      func()
	heapIdx int // -1 once fired or stopped
}

// Stop implements node.Timer. Called on the loop (Env contract).
func (t *loopTimer) Stop() {
	if t.heapIdx >= 0 {
		heap.Remove(&t.r.timers, t.heapIdx)
		t.r.nTimers.Add(-1)
	}
}

// after registers fn to fire on the loop no earlier than d from now.
// Called on the loop (Env contract), so the loop re-arms its wait on the
// next select iteration without a cross-goroutine wake.
func (r *Runtime) after(d time.Duration, fn func()) node.Timer {
	t := &loopTimer{r: r, at: time.Now().Add(d), fn: fn}
	heap.Push(&r.timers, t)
	r.nTimers.Add(1)
	return t
}

// fireDue pops and runs every timer whose deadline has passed.
func (r *Runtime) fireDue() {
	now := time.Now()
	for len(r.timers) > 0 && !r.timers[0].at.After(now) {
		t := heap.Pop(&r.timers).(*loopTimer)
		r.nTimers.Add(-1)
		r.tasks.Add(1)
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
	t.heapIdx = -1
	*h = old[:n-1]
	return t
}
