package rt

// Message-to-loop routing for the multi-core runtime.
//
// Session-scoped traffic is pinned: any message carrying a (user,
// session) pair — the whole client protocol plus the per-task
// server/coordinator interactions — is delivered to the loop owning
// that session under shard.LoopMap, so one session's state machine
// never migrates between loops.
//
// Node-scoped traffic from servers (Heartbeat, ServerSync) is
// broadcast to every loop: a server's capacity is a node-level
// resource every partition may assign against, and its sync list can
// reference sessions owned by any loop. Each partition answers for the
// tasks it owns and conservatively asks to resend the rest, which
// converges exactly like duplicated delivery does elsewhere in the
// protocol (at-least-once).
//
// Coordinator-to-coordinator traffic (replication, shard sync, work
// stealing, ring heartbeats) is loop-symmetric: when a multi-loop node
// sends, every outbound frame's From carries a "\x1f<loop>" suffix,
// and the receiving runtime routes tagged traffic without a session to
// the same loop index, so partition j of node A converses with
// partition j of node B. Ring members should therefore run the same
// -loops value; a single-loop peer (or any pre-multi-core build) never
// tags, and its traffic lands on loop 0 — byte-for-byte the wire
// format -loops=1 speaks today.

import (
	"strings"

	"rpcv/internal/proto"
)

// loopTagSep separates the node ID from the originating loop index in
// a tagged From. 0x1f (ASCII unit separator) cannot appear in sane
// node IDs and keeps the tag out of every operator-facing namespace.
const loopTagSep = "\x1f"

// taggedFrom returns the wire From for a message leaving loopIdx. A
// single-loop runtime never tags — its wire bytes are exactly the
// pre-multi-core format.
func (r *Runtime) taggedFrom(loopIdx int) proto.NodeID {
	return r.fromIDs[loopIdx]
}

// splitLoopTag strips a "\x1f<loop>" suffix from a received From,
// returning the bare node ID, the originating loop, and whether a tag
// was present.
func splitLoopTag(from proto.NodeID) (proto.NodeID, int, bool) {
	s := string(from)
	i := strings.LastIndex(s, loopTagSep)
	if i < 0 {
		return from, 0, false
	}
	tag := s[i+len(loopTagSep):]
	n := 0
	if tag == "" {
		return from, 0, false
	}
	for _, c := range tag {
		if c < '0' || c > '9' {
			return from, 0, false
		}
		n = n*10 + int(c-'0')
	}
	return proto.NodeID(s[:i]), n, true
}

// sessionOf extracts the session a message is scoped to, when it has
// one. Messages without a session are node-scoped (heartbeats, syncs,
// replication, shard control, stealing).
func sessionOf(msg proto.Message) (proto.UserID, proto.SessionID, bool) {
	switch m := msg.(type) {
	case *proto.Submit:
		return m.Call.User, m.Call.Session, true
	case *proto.SubmitAck:
		return m.Call.User, m.Call.Session, true
	case *proto.Poll:
		return m.User, m.Session, true
	case *proto.Results:
		return m.User, m.Session, true
	case *proto.SyncRequest:
		return m.User, m.Session, true
	case *proto.SyncReply:
		return m.User, m.Session, true
	case *proto.FetchResult:
		return m.User, m.Session, true
	case *proto.FetchReply:
		return m.Call.User, m.Call.Session, true
	case *proto.TaskResult:
		return m.Task.Call.User, m.Task.Call.Session, true
	case *proto.TaskResultAck:
		return m.Task.Call.User, m.Task.Call.Session, true
	case *proto.TaskCancel:
		return m.Task.Call.User, m.Task.Call.Session, true
	case *proto.ShardRedirect:
		return m.User, m.Session, true
	}
	return "", 0, false
}

// broadcastToLoops reports whether a node-scoped message must reach
// every loop: server heartbeats (capacity is node-level; every
// partition may want to assign work against it) and server syncs
// (the task list can span sessions owned by different loops; each
// partition reconciles the tasks it owns).
func broadcastToLoops(msg proto.Message) bool {
	switch m := msg.(type) {
	case *proto.Heartbeat:
		return m.Role == proto.RoleServer
	case *proto.ServerSync:
		return true
	}
	return false
}

// deliver routes one received message onto its loop(s). Called from
// connection readers (external producers): mailbox sends may block
// briefly when a loop falls behind, which is the transport's
// backpressure.
func (r *Runtime) deliver(from proto.NodeID, msg proto.Message) {
	base, fromLoop, tagged := splitLoopTag(from)
	if len(r.loops) == 1 {
		r.loops[0].receive(base, msg)
		return
	}
	if user, session, ok := sessionOf(msg); ok {
		r.loops[r.loopMap.Owner(user, session)].receive(base, msg)
		return
	}
	if broadcastToLoops(msg) {
		for _, l := range r.loops {
			l.receive(base, msg)
		}
		return
	}
	if tagged {
		r.loops[fromLoop%len(r.loops)].receive(base, msg)
		return
	}
	r.loops[0].receive(base, msg)
}

// receive schedules the handler's Receive on this loop, as a mailbox
// entry holding the envelope itself.
func (l *loop) receive(from proto.NodeID, msg proto.Message) {
	select {
	case l.mailbox <- mail{from: from, msg: msg}:
	case <-l.r.quit:
	}
}
