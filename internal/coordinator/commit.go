package coordinator

import (
	"rpcv/internal/fifo"
	"rpcv/internal/node"
	"rpcv/internal/proto"
)

// Output commit. The coordinator logs a job before it answers for it —
// the paper's pessimistic logging — without waiting for the disk on its
// event loop: a transition changes the job table at once and stages the
// job's header (persistJob), and what it tells the outside world leaves
// only once every header staged before it is durable. Meanwhile the
// loop goes on serving, and one group commit covers whatever it staged
// while the previous commit was in flight, so an fsync is paid per
// batch, not per transition, and never by the loop.
//
// A reply waits for the disk only if recovery could not repair its
// loss. A SubmitAck completes the submission for the application, which
// sends the call no more; a TaskResultAck lets the server drop its
// result log; a result, polled or pushed, lets the client's next
// Poll.Ack move the collected watermark past the call. An assignment is
// none of these: a crash that takes its header away leaves the call
// pending on the disk — or unknown, and then its SubmitAck was held too
// and the client resends it — so the restarted coordinator queues it
// and hands it out again (loadStore), and a server still running it
// counts the second copy as a duplicate. So an assignment, pulled or
// pushed, leaves in the handler run that decided it, as does every
// message but the three above, while its header is committed behind it.
//
// The gate sits at the coordinator's Send (Start wraps the env once),
// so every handler decides its replies exactly as before. A reply that
// waits is held while a header staged before it is not yet durable,
// and counted by kind (rpcv_coord_replies_held_total). Held
// replies are kept as data, (to, msg, seq) with seq the number of
// headers staged when the reply was decided, and leave in the order
// they were decided. Completions arrive in staging order, so the n-th
// header's completion — one callback, bound once — says the first n
// are durable, and releases what waited for them. On a disk whose
// writes complete at once (the memory store, the simulator's disk)
// nothing is ever held: a reply's headers are durable by the time it is
// decided, and it leaves as it always did.
//
// A failed header or blob withholds every reply still held when the
// failure arrives, since each of them waited for it: the peer asks again
// (a client's resync or next poll, a server's next pull or result
// resend), and the coordinator answers from what it holds then. A
// failure the disk reports at once is known before the reply is
// decided, and the reply leaves as it always did.
//
// The gate belongs to one coordinator instance, which lives on one
// event loop: its headers complete on that loop, and its replies wait
// for nothing staged by another.

// commitGate is the coordinator's env, with Send gated on the commit of
// the headers staged before each reply.
type commitGate struct {
	node.Env

	staged, committed uint64 // headers staged, and completed, so far
	headers           fifo.Queue[proto.CallID]
	held              fifo.Queue[effect]

	// failed reports a header whose write failed; idle hears that no
	// reply is held any more; done, bound once, is the completion every
	// header is staged with.
	failed func(call proto.CallID, err error)
	idle   func()
	done   func(err error)

	m *coordMetrics // the coordinator's, where the held replies are counted
}

// effect is one held reply.
type effect struct {
	to  proto.NodeID
	msg proto.Message
	seq uint64 // headers staged when it was decided
}

func newCommitGate(env node.Env, failed func(proto.CallID, error), idle func(), m *coordMetrics) *commitGate {
	g := &commitGate{Env: env, failed: failed, idle: idle, m: m}
	g.done = g.commit
	return g
}

// Send implements node.Env: a reply that awaits a commit waits for the
// headers staged before it, and behind the replies already waiting; any
// other message leaves at once.
func (g *commitGate) Send(to proto.NodeID, msg proto.Message) {
	kind, wait := awaitsCommit(msg)
	if !wait || (g.held.Len() == 0 && g.committed == g.staged) {
		g.Env.Send(to, msg)
		return
	}
	g.held.Push(effect{to: to, msg: msg, seq: g.staged})
	g.m.repliesHeld[kind].Inc()
	g.noteHeld()
}

// heldKindNames labels rpcv_coord_replies_held_total by the kind of the
// reply held, in awaitsCommit's order.
var heldKindNames = [...]string{"submit-ack", "task-result-ack", "results"}

// awaitsCommit reports whether msg waits for the headers staged before
// it, and its index in heldKindNames. A reply waits for the disk only if
// recovery could not repair its loss: one that tells of a call accepted
// or finished, never one that assigns it.
func awaitsCommit(msg proto.Message) (kind int, wait bool) {
	switch m := msg.(type) {
	case *proto.SubmitAck:
		return 0, true
	case *proto.TaskResultAck:
		return 1, true
	case *proto.Results:
		return 2, len(m.Results) > 0
	}
	return 0, false
}

// noteHeld refreshes the gauge of the replies held.
func (g *commitGate) noteHeld() { g.m.repliesHeldNow.SetInt(g.held.Len()) }

// stage notes that call's header is being staged, with done as its
// completion.
func (g *commitGate) stage(call proto.CallID) {
	g.headers.Push(call)
	g.staged++
}

// unstage takes back the last stage: a blob of its header's had failed
// already, and the header was never written.
func (g *commitGate) unstage(err error) {
	g.staged--
	g.failed(g.headers.Unpush(), err)
	g.withhold()
}

// commit is the completion of the oldest header still staged: it
// releases the replies that waited for it, or withholds them.
func (g *commitGate) commit(err error) {
	call := g.headers.Pop()
	g.committed++
	if err != nil {
		g.failed(call, err)
		g.withhold()
		return
	}
	for g.held.Len() > 0 && g.held.Front().seq <= g.committed {
		e := g.held.Pop()
		g.Env.Send(e.to, e.msg)
	}
	g.noteHeld()
	if g.held.Len() == 0 {
		g.idle()
	}
}

// withhold drops every held reply: a write they waited for failed, or
// the incarnation ended.
func (g *commitGate) withhold() {
	g.held.Reset()
	g.noteHeld()
	g.idle()
}
