// Package sched is the coordinator's pending queue. The paper's
// coordinator schedules first-come-first-served and re-issues a task
// only after a heartbeat suspicion: a call is handed out in the order
// it was queued, to whichever server asks first. That is the one
// schedule here, an Engine the coordinator delegates every queue
// operation to.
//
// All methods are event-loop only, like the coordinator that owns the
// engine.
package sched

import (
	"fmt"
	"time"

	"rpcv/internal/fifo"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
)

// Config parameterizes an Engine.
type Config struct {
	// Policy names the schedule: "fcfs", or empty for the same. Any
	// other name is an error.
	Policy string

	// Obs, when non-nil, receives the rpcv_sched_queue_depth gauge,
	// labeled node="<Node>"; nil costs nothing.
	Obs *obs.Registry
	// Node labels this engine's gauge — the owning coordinator's ID.
	Node proto.NodeID
}

// entry is one queued call with its arrival number.
type entry struct {
	call proto.CallID
	n    uint64
}

// Engine is the pending queue: calls in arrival order.
//
// Unqueue does not search the queue: it forgets the call's arrival
// number, and the entry left behind is stale, skipped when it reaches
// the front. A call queued again gets a new number and goes to the
// back, so its older entry is stale too. Once the queue has been as
// deep, an enqueue and its pop allocate nothing.
type Engine struct {
	pending fifo.Queue[entry]
	queued  map[proto.CallID]uint64 // each live call's arrival number
	n       uint64                  // the last arrival number given

	gQueue *obs.Gauge // nil-safe no-op when Config.Obs is nil
}

// New builds an engine. A policy other than fcfs is an error (the
// caller decides whether to serve FCFS anyway).
func New(cfg Config) (*Engine, error) {
	if cfg.Policy != "" && cfg.Policy != "fcfs" {
		return nil, fmt.Errorf("sched: unknown policy %q (the schedule is fcfs)", cfg.Policy)
	}
	e := &Engine{queued: make(map[proto.CallID]uint64)}
	if cfg.Obs != nil {
		e.gQueue = cfg.Obs.Gauge("rpcv_sched_queue_depth", obs.L("node", string(cfg.Node)))
	}
	return e, nil
}

// Len returns the number of calls queued.
func (e *Engine) Len() int { return len(e.queued) }

// Queued reports whether the call is queued.
func (e *Engine) Queued(call proto.CallID) bool {
	_, ok := e.queued[call]
	return ok
}

// Enqueue queues a call at the back. It returns false when the call is
// already queued (the single duplicate check every insertion path
// funnels through). The execution time, deadline and clock are not
// read: the order is arrival order.
func (e *Engine) Enqueue(call proto.CallID, _ time.Duration, _, _ time.Time) bool {
	if _, dup := e.queued[call]; dup {
		return false
	}
	e.n++
	e.queued[call] = e.n
	e.pending.Push(entry{call: call, n: e.n})
	e.gQueue.SetInt(len(e.queued))
	return true
}

// Unqueue drops the call from the queue. Its entry is skipped lazily,
// when it reaches the front.
func (e *Engine) Unqueue(call proto.CallID) {
	delete(e.queued, call)
	e.gQueue.SetInt(len(e.queued))
}

// Pop takes the oldest queued call, for whichever server asks; ok is
// false when nothing is queued.
func (e *Engine) Pop(proto.NodeID, time.Time) (call proto.CallID, ok bool) {
	for e.pending.Len() > 0 {
		head := e.pending.Pop()
		if n, live := e.queued[head.call]; !live || n != head.n {
			continue // unqueued, or queued again behind
		}
		delete(e.queued, head.call)
		e.gQueue.SetInt(len(e.queued))
		return head.call, true
	}
	return proto.CallID{}, false
}
