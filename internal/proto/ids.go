// Package proto defines the RPC-V wire protocol: component identifiers,
// message types exchanged between clients, coordinators and servers, and
// the job/task state machine maintained by coordinators.
//
// Any client RPC call execution in the system is identified by the triple
// (user unique ID, session unique ID, RPC unique ID), exactly as in the
// paper (section 4.2, "Managing Message Logs"). A session corresponds to
// one login of the user into the system; any instance of the client
// program may reconnect from a different address and retrieve results
// using these IDs alone.
package proto

import (
	"fmt"
	"strconv"
	"strings"
)

// NodeID identifies a component (client, coordinator or server) in the
// system. IDs are stable across crashes and restarts of the component:
// a restarting node keeps its NodeID, which is what allows log-based
// state synchronization after an intermittent crash.
type NodeID string

// Role classifies a component in the three-tier architecture.
type Role uint8

const (
	// RoleClient is the first tier: the application submitting RPCs.
	RoleClient Role = iota
	// RoleCoordinator is the middle tier: virtualization, scheduling,
	// forwarding, replication.
	RoleCoordinator
	// RoleServer is the third tier: the worker executing RPC services.
	RoleServer
)

// String returns the lower-case role name.
func (r Role) String() string {
	switch r {
	case RoleClient:
		return "client"
	case RoleCoordinator:
		return "coordinator"
	case RoleServer:
		return "server"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// UserID identifies a user of the grid.
type UserID string

// SessionID identifies one login session of a user. It is allocated by
// the client at session start and never reused.
type SessionID uint64

// RPCSeq is the per-session RPC submission counter. All client RPC
// submissions carry a unique, monotonically increasing counter value:
// this timestamp is the basis of the client/coordinator synchronization
// protocol.
type RPCSeq uint64

// CallID is the globally unique identifier of one client RPC call:
// the (user, session, rpc) triple from the paper.
type CallID struct {
	User    UserID
	Session SessionID
	Seq     RPCSeq
}

// String renders the call ID as user/session/seq. It names records on
// disk (coord/job/<call>), so its bytes are fixed: those of
// fmt.Sprintf("%s/%d/%d", ...), built in one allocation.
func (c CallID) String() string {
	var sb strings.Builder
	sb.Grow(c.len())
	c.writeTo(&sb, '/')
	return sb.String()
}

// len is the length of c.String().
func (c CallID) len() int {
	return len(c.User) + 2 + uintLen(uint64(c.Session)) + uintLen(uint64(c.Seq))
}

// writeTo appends user/session/seq to sb, with sep for every slash,
// those inside the user included.
func (c CallID) writeTo(sb *strings.Builder, sep byte) {
	if sep == '/' {
		sb.WriteString(string(c.User))
	} else {
		for i := 0; i < len(c.User); i++ {
			if b := c.User[i]; b == '/' {
				sb.WriteByte(sep)
			} else {
				sb.WriteByte(b)
			}
		}
	}
	sb.WriteByte(sep)
	writeUint(sb, uint64(c.Session))
	sb.WriteByte(sep)
	writeUint(sb, uint64(c.Seq))
}

// writeUint appends v in decimal without allocating.
func writeUint(sb *strings.Builder, v uint64) {
	var digits [20]byte // math.MaxUint64 has 20
	sb.Write(strconv.AppendUint(digits[:0], v, 10))
}

// uintLen is the number of decimal digits of v.
func uintLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// Less orders call IDs lexicographically by (user, session, seq). The
// order is used only for deterministic iteration, never for agreement.
func (c CallID) Less(o CallID) bool {
	if c.User != o.User {
		return c.User < o.User
	}
	if c.Session != o.Session {
		return c.Session < o.Session
	}
	return c.Seq < o.Seq
}

// TaskID identifies one scheduled instance of a job on a server. The
// same CallID may map to several TaskIDs over time: on fault suspicion
// the coordinator schedules new instances of all RPC calls forwarded to
// the suspect ("on suspicion" replication strategy), and asynchrony can
// produce duplicated executions, which is why RPC-V guarantees
// at-least-once (not exactly-once) semantics.
type TaskID struct {
	Call     CallID
	Instance uint32
}

// String renders the task ID as call#instance, in one allocation.
func (t TaskID) String() string { return t.Key("", '/') }

// Key is prefix followed by the task ID, every '/' of the ID — those
// of the user included — written as sep: with sep '/' it is prefix +
// t.String(), with '_' it is prefix + strings.ReplaceAll(t.String(),
// "/", "_"), a key with no slash below prefix. One allocation.
func (t TaskID) Key(prefix string, sep byte) string {
	var sb strings.Builder
	sb.Grow(len(prefix) + t.Call.len() + 1 + uintLen(uint64(t.Instance)))
	sb.WriteString(prefix)
	t.Call.writeTo(&sb, sep)
	sb.WriteByte('#')
	writeUint(&sb, uint64(t.Instance))
	return sb.String()
}
