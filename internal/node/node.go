// Package node defines the runtime abstraction that RPC-V protocol state
// machines are written against. The same client, coordinator and server
// logic runs unchanged on two environments:
//
//   - the deterministic discrete-event simulator (internal/sim), used by
//     every experiment and most tests, where time is virtual; and
//   - the real-time TCP runtime (internal/rt), used by the cmd/ daemons
//     and the quickstart example, where time is the wall clock.
//
// The abstraction deliberately mirrors the paper's communication model:
// interactions are connection-less and asymmetric (Send is fire and
// forget; replies are just messages in the other direction), there is no
// reliable delivery, and there are no connection-break fault signals —
// failure information only ever comes from heartbeat timeouts.
//
// Because a reply is only a message, nothing ties it to one request: it
// may arrive late, and more than once. The coordinator uses that — it
// answers a server's work pull again when work turns up, and a client's
// poll again when a result does (internal/coordinator, "Late replies")
// — so a handler must take a reply whenever it comes: an assignment
// beyond the capacity last advertised, a result already held.
package node

import (
	"math/rand"
	"time"

	"rpcv/internal/proto"
)

// Timer cancels a pending timer when invoked. Cancelling an already
// fired or cancelled timer is a no-op.
type Timer interface {
	Stop()
}

// Env is the execution environment handed to a protocol state machine.
//
// All methods are called from the single goroutine (or event loop) that
// owns the node, so handlers never need locking for their own state.
type Env interface {
	// Self returns the node's stable identifier.
	Self() proto.NodeID

	// Now returns the current (virtual or wall-clock) time.
	Now() time.Time

	// After schedules fn to run on the node's event loop after d.
	// The returned Timer can cancel it.
	After(d time.Duration, fn func()) Timer

	// Send transmits msg to the named node, connection-less and
	// unreliably: it never blocks, never fails synchronously, and the
	// message may be lost, delayed arbitrarily, or arrive after the
	// destination crashed. A Forgetter hands msg over with the call,
	// lists and all: the Env may reuse the struct and its lists' arrays
	// once the message has left (see Forgetter).
	Send(to proto.NodeID, msg proto.Message)

	// Disk returns the node's stable store. Its contents survive
	// crashes and restarts of the node (but writes may be delayed or
	// lost depending on the logging strategy layered above).
	Disk() Disk

	// Rand returns the node's deterministic random source.
	Rand() *rand.Rand

	// Logf records a debug/trace line attributed to the node.
	Logf(format string, args ...any)
}

// Disk models the node-local stable storage used for sender-based
// message logging, result archives and the coordinator's job table.
// Write is durable when it returns: higher layers (internal/msglog)
// model optimistic logging by delaying the Write call itself.
//
// Keys are flat strings; the simulator charges a latency per operation
// proportional to the data size, the real runtime maps the store to a
// pluggable durable-store engine (internal/store).
//
// Values are immutable and change hands without a copy. Write and
// WriteAsync take ownership of value: the store keeps that very slice,
// so the caller must not modify its bytes afterwards (it may keep
// reading them, and may hand the same slice to the store again). Read
// returns the stored slice, which the caller must not modify either.
// Why: every engine serves reads from memory, so a defensive copy on
// each side of the interface made a 64 KiB payload cost two extra
// allocations per write and live twice — once decoded in the writer's
// own table, once in the store. Every writer hands over a buffer it
// has just encoded or just received and never touches again, so the
// copies bought nothing. store.Checked enforces the rule in tests.
type Disk interface {
	// Write durably stores value under key, replacing any previous
	// value. It takes ownership of value (see above).
	Write(key string, value []byte) error
	// Read returns the stored value, or ok=false if absent. The slice
	// is the store's own: read-only for the caller.
	Read(key string) (value []byte, ok bool)
	// Delete durably removes key; deleting an absent key is a no-op.
	Delete(key string) error
	// Keys returns all stored keys with the given prefix, sorted.
	Keys(prefix string) []string
}

// BatchDisk is optionally implemented by stores that amortize
// durability across concurrent operations — a write-ahead log with
// group commit, where one fsync covers every write staged while the
// previous commit was in flight.
//
// Consumers discover it by type assertion on Env.Disk(). When absent,
// they fall back to synchronous Write calls (per-operation durability,
// the paper's literal per-entry disk access). A writer that must log a
// change before it tells anyone of it follows the output-commit rule
// rather than waiting on its loop: it changes its state at once, stages
// every value with WriteAsync, and holds each externally visible effect
// of the change until the completion of the last value staged before
// it has run. Staging order is commit order, so that completion says
// everything before it is durable too, and one group commit covers
// whatever the loop staged meanwhile (the coordinator's gate,
// internal/coordinator/commit.go, is the example). Garbage collection
// stages its deletes the same way (DeleteAsync): a log entry or job
// record whose information is safely held elsewhere is never urgent to
// remove, so nothing waits for the fsync that removes it, and the
// delete rides whatever commit comes next. The WriteAsync and
// DeleteAsync functions below pick the staged call or the synchronous
// one for a caller that holds only a Disk.
type BatchDisk interface {
	Disk

	// WriteAsync stages the write and returns immediately; a Read
	// issued after WriteAsync returns observes the value. It takes
	// ownership of value exactly as Write does, from the moment it is
	// called — not from the moment done runs. done is invoked exactly
	// once, on the node's event loop, when the entry is durable
	// (err == nil) or permanently failed; a caller that drops that
	// error has lost a write without knowing (rpcv-lint's diskerr
	// analyzer flags it). Ordering between distinct staged writes is
	// preserved.
	WriteAsync(key string, value []byte, done func(err error))

	// DeleteAsync stages the removal of key and returns immediately; a
	// Read issued after it returns no longer finds the key. done has
	// WriteAsync's contract: exactly once, on the node's event loop,
	// when the delete is durable (err == nil) or permanently failed —
	// a failed delete leaves the key for a later pass, and a caller
	// that drops the error never learns the store is not shrinking.
	// Staging order is commit order across writes and deletes alike,
	// so a delete staged behind a write implies that write.
	DeleteAsync(key string, done func(err error))

	// Sync blocks until every write staged so far is durable.
	Sync() error
}

// WriteAsync stages the write when d batches and otherwise performs it
// synchronously, handing the outcome to done either way.
func WriteAsync(d Disk, key string, value []byte, done func(err error)) {
	if bd, ok := d.(BatchDisk); ok {
		bd.WriteAsync(key, value, done)
		return
	}
	done(d.Write(key, value))
}

// DeleteAsync is WriteAsync's counterpart for a removal.
func DeleteAsync(d Disk, key string, done func(err error)) {
	if bd, ok := d.(BatchDisk); ok {
		bd.DeleteAsync(key, done)
		return
	}
	done(d.Delete(key))
}

// Offloader is optionally implemented by Envs that can run blocking
// work somewhere other than the node's event loop. Handler code may
// never block — every message, timer and heartbeat queues behind it,
// and heartbeat silence is the system's only failure signal — so code
// the handler does not control and cannot bound (the server's service
// bodies) goes through Offload.
//
// internal/rt implements it: work runs on a goroutine of its own and
// done is then handed to the owning loop. The simulator does not: on
// the virtual clock nothing blocks, a task's duration is charged by a
// timer, and running the body inline keeps every simulated figure
// reproducible. That is why the capability is optional, and why callers
// go through the Offload function below rather than asserting the
// interface themselves.
type Offloader interface {
	// Offload runs work off the event loop and, once it returns, done
	// on the loop. work must not touch the handler's state (it shares
	// no goroutine with it); whatever it produces crosses back through
	// variables the two closures share, which done may read because
	// work has returned. Offload itself never blocks.
	//
	// done runs at most once and may never run at all: an Env that is
	// shut down does not wait for work in flight — a body may run for an
	// hour, and a stopping node is a crashed node — so its done is
	// dropped with the loop. A handler that can be Stopped and Started
	// again on the same value must still make a done of an earlier
	// incarnation a no-op, since not every Env has a loop to drop.
	Offload(work, done func())
}

// Offload runs work through env's Offloader when it has one; otherwise
// it runs work and then done inline, on the caller's loop.
func Offload(env Env, work, done func()) {
	if o, ok := env.(Offloader); ok {
		o.Offload(work, done)
		return
	}
	work()
	done()
}

// Releaser is optionally implemented by Envs whose received payloads
// are read into buffers the runtime may reuse. A handler that is done
// with a payload a message brought it hands it back through Release, so
// that the next payload of its size is read into it instead of a fresh
// allocation: the server does with a task's params once the service
// body has returned and with a result's output once the coordinator has
// acknowledged it; the coordinator with a collected call's params and
// output; the coordinator and the client with a duplicate's payload
// they throw away.
//
// The caller vouches for what it kept and what it logged: no slice of
// the array is left in its state, no reply it decided is still on its
// way to Send, and no store holds the bytes — a write of them, or a
// delete that had to commit first, has completed. The runtime vouches
// for what was sent: an envelope queued before the Release, which may
// carry the payload, is written or dropped before the array is reused.
//
// internal/rt implements it: every message it delivers was decoded from
// the wire into arrays of the receiver's own, which the proto package
// pools. The simulator and nodetest do not: their messages share
// payloads by pointer with the sender (the coordinator's job record, a
// test's slice), which reuse would overwrite. That is why the capability
// is optional, and why callers go through the Release function below.
type Releaser interface {
	// Release gives up b: the caller keeps no slice of its array, and
	// nothing it holds or logged holds one; a message it sent may still
	// be queued.
	Release(b []byte)
}

// Release hands b to env's Releaser when it has one; otherwise b is
// left to the garbage collector.
func Release(env Env, b []byte) {
	if r, ok := env.(Releaser); ok {
		r.Release(b)
	}
}

// Forgetter is optionally implemented by Handlers that treat a message
// as a value at the Env boundary, in both directions: its struct and
// the lists it carries. A struct Receive was handed they keep no pointer
// to once Receive returns: not the struct, not a field's address, and
// not the struct itself as a message sent on. Nor do they keep one of
// its lists — no slice of a list, no element's address: what they keep
// of a list they copy out by element, as the client does a delivered
// result. A struct they hand to Send they keep no pointer to either, nor
// to its lists, and they never send one struct twice: a message kept for
// a later resend stays the handler's, and each send of it is a copy
// (proto.Pooled builds one). No list they send is their own state
// either: each is built in the array the struct brought (proto.Blank),
// or is a fresh one of its own. The one exception is a HeartbeatAck's
// Coordinators, the coordinator's member list, which proto never keeps.
// An Env may then reuse a received struct and its lists' arrays once
// Receive returns, and a sent one once the message has left — written
// or dropped (proto.ReleaseMessage). What the struct and its elements
// point to stays with whoever holds it, as it always did: strings, and
// payloads (given back only through Release). The coordinator, the
// server and the client implement it, and build every message they send
// with proto.Pooled or proto.Blank.
//
// internal/rt honours it: it hands the struct of every message a
// Forgetter received, and of every message it sent, back to the wire
// decoder's pool. A handler that keeps or forwards what it receives, or
// keeps what it sends — an echo that sends the message on, a test that
// records it — does not implement it, and its messages are never
// reused. The simulator and nodetest decode nothing and hand the
// sender's pointer to the receiver, so they ignore it.
type Forgetter interface {
	// ForgetsMessages is the promise above; it does nothing.
	ForgetsMessages()
}

// Handler is the protocol state machine interface implemented by the
// client, coordinator and server nodes.
type Handler interface {
	// Start initializes the node. It is called once per incarnation:
	// on first boot and again after every restart, with a fresh Env
	// whose Disk retains the previous incarnation's durable writes.
	Start(env Env)

	// Receive delivers one message. from identifies the sender as
	// claimed by the transport; the protocol never trusts it for more
	// than addressing replies. What msg points to — strings, payloads —
	// the handler may keep; the struct itself and its lists it may keep
	// past Receive only if it is no Forgetter.
	Receive(from proto.NodeID, msg proto.Message)

	// Stop tells the node its incarnation is ending (crash or clean
	// shutdown). Handlers must not touch env afterwards; pending
	// timers are cancelled by the runtime.
	Stop()
}
