package obs

import (
	"sync"
	"time"

	"rpcv/internal/proto"
)

// Stage names one step of a call's life. The happy path is
// submit → enqueue → dispatch → exec → result → logged-durable → ack;
// fault handling and scheduling add requeue and speculate hops. Stages are stamped on whichever node observes them:
// submit/ack on the client, enqueue/dispatch/result and the hop stages
// on a coordinator, exec and the server-side logged-durable on a
// server.
type Stage string

const (
	StageSubmit    Stage = "submit"         // client issued the call
	StageEnqueue   Stage = "enqueue"        // coordinator accepted and queued it
	StageDispatch  Stage = "dispatch"       // coordinator assigned it to a server
	StageExec      Stage = "exec"           // server finished executing it
	StageResult    Stage = "result"         // coordinator stored the result
	StageDurable   Stage = "logged-durable" // a message-log write for it reached disk
	StageAck       Stage = "ack"            // client received the result
	StageRequeue   Stage = "requeue"        // coordinator re-issued it after a fault
	StageSpeculate Stage = "speculate"      // a duplicate instance was issued
)

// stageRank orders stages that share a timestamp so assembled
// timelines read causally even at coarse clock resolution.
var stageRank = map[Stage]int{
	StageSubmit: 0, StageDurable: 1, StageEnqueue: 2,
	StageDispatch: 3, StageSpeculate: 4, StageRequeue: 5,
	StageExec: 6, StageResult: 7, StageAck: 8,
}

// Span is one stage observation for one call on one node.
type Span struct {
	Call   proto.CallID `json:"call"`
	Stage  Stage        `json:"stage"`
	Node   proto.NodeID `json:"node"`
	At     time.Time    `json:"at"`
	Detail string       `json:"detail,omitempty"`
}

// Tracer records spans into a fixed-size ring: constant memory, the
// most recent spans win, and recording is one mutex-guarded slot write
// — cheap enough to leave on in production. All methods are safe for
// concurrent use and no-op on a nil receiver.
type Tracer struct {
	node proto.NodeID

	mu    sync.Mutex
	buf   []Span // grows on demand, never beyond max
	max   int
	next  int
	total uint64
}

// NewTracer creates a ring of the given capacity (DefaultSpanRing when
// size <= 0) for the named node. The ring's memory grows with the
// spans actually recorded, up to the capacity — a quiet node costs
// almost nothing.
func NewTracer(node proto.NodeID, size int) *Tracer {
	if size <= 0 {
		size = DefaultSpanRing
	}
	return &Tracer{node: node, max: size}
}

// Event records a span stamped time.Now. Use EventAt from event-loop
// code that has a node clock (virtual time under simulation).
func (t *Tracer) Event(call proto.CallID, stage Stage, detail string) {
	t.EventAt(time.Now(), call, stage, detail)
}

// EventAt records a span with an explicit timestamp.
func (t *Tracer) EventAt(at time.Time, call proto.CallID, stage Stage, detail string) {
	if t == nil {
		return
	}
	s := Span{Call: call, Stage: stage, Node: t.node, At: at, Detail: detail}
	t.mu.Lock()
	if len(t.buf) < t.max {
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.next] = s
	}
	t.next = (t.next + 1) % t.max
	t.total++
	t.mu.Unlock()
}

// Dump copies the retained spans, oldest first.
func (t *Tracer) Dump() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.buf))
	if len(t.buf) == t.max {
		// Full ring: next points at the oldest retained span.
		out = append(out, t.buf[t.next:]...)
	}
	return append(out, t.buf[:t.next]...)
}

// Total returns how many spans were ever recorded (recorded - retained
// = overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
