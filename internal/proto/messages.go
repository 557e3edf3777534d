package proto

import (
	"fmt"
	"time"
)

// Message is the interface implemented by every RPC-V protocol message.
//
// WireSize reports the serialized size of the message in bytes: the
// simulated network model charges size/bandwidth transfer time from
// it, and the binary codec sizes its encode buffers by it. Payload
// bytes (params, outputs, strings named in the formulas) are counted
// exactly; framing rides on headerSize per record and fixed
// per-element hints for embedded IDs (40 per TaskID, 16 per NodeID, 8
// per sequence number), which over-estimate the binary encoding for
// typical identifier lengths — a deployment whose user IDs alone run
// past ~32 bytes would tip ID-list messages the other way, costing an
// encode-buffer regrow and a netmodel undercharge, not correctness.
// TestWireSizeMatchesCodec pins the hint against the actual
// marshalled length over representative samples, so adding a field
// without updating WireSize fails loudly instead of silently skewing
// the accounting.
type Message interface {
	Kind() string
	WireSize() int
}

// headerSize is the approximate fixed framing cost of any message:
// identifiers, timestamps and the message tag.
const headerSize = 64

// ---------------------------------------------------------------------
// Client -> Coordinator
// ---------------------------------------------------------------------

// Submit carries one RPC call from a client to its preferred
// coordinator. Parameters are transmitted along with the call
// (synchronous data communication mode): either marshalled arguments or
// a compressed file archive, both represented by Params.
type Submit struct {
	Call     CallID
	Service  string        // function identifier on the server side
	Params   []byte        // serialized parameters or archive
	ExecTime time.Duration // hint for synthetic services; 0 for real ones
	// ResultSize is the synthetic result payload size produced by the
	// benchmark services; real services ignore it.
	ResultSize int
}

// Kind implements Message.
func (*Submit) Kind() string { return "submit" }

// WireSize implements Message.
func (m *Submit) WireSize() int { return headerSize + len(m.Service) + len(m.Params) }

// SubmitAck acknowledges the durable registration of a Submit on the
// coordinator. MaxSeq is the maximum RPC timestamp the coordinator knows
// for this (user, session); the client compares it with its own counter
// to detect lost submissions after a crash.
type SubmitAck struct {
	Call   CallID
	MaxSeq RPCSeq
}

// Kind implements Message.
func (*SubmitAck) Kind() string { return "submit-ack" }

// WireSize implements Message.
func (m *SubmitAck) WireSize() int { return headerSize }

// Poll asks the coordinator for any completed results for a session.
// The client collects RPC results by pulling the coordinator
// periodically, and tells it what not to send again: the paper's
// timestamp comparison, plus the exceptions to it.
//
// Ack is a watermark: the client holds a result for every sequence
// number in 1..Ack. Have lists, in ascending order, the sequence
// numbers above Ack whose results it also holds — calls that finished
// ahead of an earlier one still in flight — so its length follows the
// out-of-order window, not the session's age. The coordinator answers
// with the finished results for every seq outside {1..Ack} ∪ Have.
//
// Ack is also the session's garbage-collection signal, and the one
// thing about a client a coordinator remembers: a call whose seq the
// session's Ack has passed is collected. The client has said it holds
// the result, so the coordinator owes the session nothing more for that
// call except never to run it again — it keeps the highest Ack the
// session has sent (the collected watermark, durable and replicated)
// and deletes the finished calls at or below it. A later Poll with a
// lower Ack gets nothing from below the watermark. Have never collects:
// only the watermark does.
//
// What a relaunched session can still fetch is therefore every result
// no Poll has acknowledged — and the acknowledgement of a result
// travels on the next Poll, not the one that fetched it (the poll
// timer's, or one the session sends at once: client.AckSoon). A client
// that lost its log polls with Ack = 0 and an empty Have and receives
// everything above the session's watermark, which a SyncReply tells it
// (Collected). Ack = 0 with a long Have is equally valid; a coordinator
// also tolerates a Have that is unsorted or repeats entries.
type Poll struct {
	User    UserID
	Session SessionID
	Ack     RPCSeq
	Have    []RPCSeq
}

// Kind implements Message.
func (*Poll) Kind() string { return "poll" }

// WireSize implements Message. Ack rides in the header, like every
// other single sequence number.
func (m *Poll) WireSize() int { return headerSize + 8*len(m.Have) }

// Results returns zero or more completed RPC results to the client.
type Results struct {
	User    UserID
	Session SessionID
	Results []Result
}

// Kind implements Message.
func (*Results) Kind() string { return "results" }

// WireSize implements Message.
func (m *Results) WireSize() int {
	n := headerSize
	for i := range m.Results {
		n += m.Results[i].wireSize()
	}
	return n
}

// Result is one completed RPC result.
type Result struct {
	Call   CallID
	Output []byte // serialized result or archive of new/modified files
	Err    string // non-empty if the service itself failed
	Server NodeID // worker that produced the result (informational)
}

func (r *Result) wireSize() int { return headerSize + len(r.Output) + len(r.Err) }

// SyncRequest opens a client/coordinator state synchronization. The
// client sends the maximum timestamp it has logged locally; the
// coordinator replies with a SyncReply carrying its own view, from which
// both determine received and lost messages, which are resent.
type SyncRequest struct {
	User    UserID
	Session SessionID
	MaxSeq  RPCSeq // highest sequence in the client's local log; 0 if none
	HaveLog bool   // whether the client still holds its local log
}

// Kind implements Message.
func (*SyncRequest) Kind() string { return "sync-request" }

// WireSize implements Message.
func (m *SyncRequest) WireSize() int { return headerSize }

// SyncReply answers a SyncRequest with the coordinator's known maximum
// timestamp, the session's collected watermark (see Poll: every call in
// 1..Collected was acknowledged by an earlier incarnation of the
// client, and is gone) and the list of logged sequence numbers above
// it, so a client that lost its log can rebuild its state and one that
// lost only its watermark resumes where the session stood.
type SyncReply struct {
	User      UserID
	Session   SessionID
	MaxSeq    RPCSeq
	Collected RPCSeq
	Known     []RPCSeq
}

// Kind implements Message.
func (*SyncReply) Kind() string { return "sync-reply" }

// WireSize implements Message. Collected rides in the header, like
// Poll.Ack.
func (m *SyncReply) WireSize() int { return headerSize + 8*len(m.Known) }

// ---------------------------------------------------------------------
// Server <-> Coordinator
// ---------------------------------------------------------------------

// Heartbeat is the periodic "heart beat" signal. Servers send it to
// their preferred coordinator (which uses it for server fault
// suspicion); it also requests work: connection-less interactions mean
// the coordinator only ever replies to requests, never initiates.
type Heartbeat struct {
	From     NodeID
	Role     Role
	Capacity int  // number of additional tasks the sender can accept
	WantWork bool // true when the sender asks for tasks in the reply
}

// Kind implements Message.
func (*Heartbeat) Kind() string { return "heartbeat" }

// WireSize implements Message.
func (m *Heartbeat) WireSize() int { return headerSize }

// HeartbeatAck answers a Heartbeat, optionally assigning tasks and
// piggy-backing the coordinator list merge (section 4.2: lists are
// merged periodically at heartbeat receptions).
type HeartbeatAck struct {
	From         NodeID
	Tasks        []TaskAssignment
	Coordinators []NodeID
}

// Kind implements Message.
func (*HeartbeatAck) Kind() string { return "heartbeat-ack" }

// WireSize implements Message.
func (m *HeartbeatAck) WireSize() int {
	n := headerSize + 16*len(m.Coordinators)
	for i := range m.Tasks {
		n += m.Tasks[i].wireSize()
	}
	return n
}

// TaskAssignment carries one task description plus its parameter data to
// a server: command line / service name and the optional archive.
type TaskAssignment struct {
	Task       TaskID
	Service    string
	Params     []byte
	ExecTime   time.Duration
	ResultSize int
}

func (t *TaskAssignment) wireSize() int { return headerSize + len(t.Service) + len(t.Params) }

// TaskResult uploads a finished task's result archive from a server.
// The archive built as the result of the execution represents the
// server log, so the server-side logging protocol is necessarily
// pessimistic: the result is on the server's disk before this message.
type TaskResult struct {
	From   NodeID
	Task   TaskID
	Output []byte
	Err    string
}

// Kind implements Message.
func (*TaskResult) Kind() string { return "task-result" }

// WireSize implements Message.
func (m *TaskResult) WireSize() int { return headerSize + len(m.Output) + len(m.Err) }

// TaskResultAck confirms durable receipt of a TaskResult, allowing the
// server to garbage-collect the corresponding log entry.
type TaskResultAck struct {
	Task TaskID
}

// Kind implements Message.
func (*TaskResultAck) Kind() string { return "task-result-ack" }

// WireSize implements Message.
func (m *TaskResultAck) WireSize() int { return headerSize }

// TaskCancel tells a server that a task instance it holds is no longer
// wanted: another instance's result was already stored (the call was
// requeued after a suspicion and an earlier instance finished first, or
// the result arrived through replication).
// Cancellation is best-effort and idempotent — a server that already
// executed or never received the instance just discards the message;
// an uploaded loser result deduplicates on the coordinator anyway.
type TaskCancel struct {
	Task TaskID
}

// Kind implements Message.
func (*TaskCancel) Kind() string { return "task-cancel" }

// WireSize implements Message.
func (m *TaskCancel) WireSize() int { return headerSize }

// ServerSync performs the server/coordinator synchronization. Servers
// may hold non-contiguous timestamps for a given client, so the
// synchronization is a peer-wise comparison of logs: the server sends
// the exact set of task IDs whose results it still holds (Tasks) plus
// the tasks currently executing (Running). From the complement, the
// coordinator learns which of its "ongoing" assignments died with the
// server's previous incarnation (an intermittent crash shorter than the
// suspicion timeout) and re-schedules them.
type ServerSync struct {
	From    NodeID
	Tasks   []TaskID
	Running []TaskID
}

// Kind implements Message.
func (*ServerSync) Kind() string { return "server-sync" }

// WireSize implements Message.
func (m *ServerSync) WireSize() int { return headerSize + 40*(len(m.Tasks)+len(m.Running)) }

// ServerSyncReply lists which of the offered task results the
// coordinator wants resent (its copy was lost) and which the server may
// drop (already safely stored or obsolete).
type ServerSyncReply struct {
	Resend []TaskID
	Drop   []TaskID
}

// Kind implements Message.
func (*ServerSyncReply) Kind() string { return "server-sync-reply" }

// WireSize implements Message.
func (m *ServerSyncReply) WireSize() int { return headerSize + 40*(len(m.Resend)+len(m.Drop)) }

// ---------------------------------------------------------------------
// Coordinator <-> Coordinator (passive replication ring)
// ---------------------------------------------------------------------

// ReplicaUpdate propagates an abstract of a coordinator's state to its
// successor on the virtual ring. Tasks are replicated with their state
// (finished, ongoing, pending) one after the other; Jobs carries the
// job descriptions (database records), not the file archives, which the
// paper does not replicate.
type ReplicaUpdate struct {
	From  NodeID
	Epoch uint64 // sender's restart epoch, to discard stale updates
	// Round is the sender's monotonically increasing round counter;
	// the ack echoes it, so a late ack from an earlier round can never
	// be credited to a newer one (which would wrongly clear dirty
	// records whose own update was lost).
	Round   uint64
	Jobs    []JobRecord
	MaxSeqs []SessionMax // per-session maximum timestamps for sync
}

// Kind implements Message.
func (*ReplicaUpdate) Kind() string { return "replica-update" }

// WireSize implements Message.
func (m *ReplicaUpdate) WireSize() int {
	n := headerSize + 24*len(m.MaxSeqs)
	for i := range m.Jobs {
		n += m.Jobs[i].wireSize()
	}
	return n
}

// SessionMax carries the maximum known RPC timestamp of one session
// and its collected watermark (see Poll), which is how a replica learns
// what it may delete too; coordinator-to-coordinator synchronization
// exchanges these.
type SessionMax struct {
	User      UserID
	Session   SessionID
	MaxSeq    RPCSeq
	Collected RPCSeq
}

// ReplicaAck acknowledges a ReplicaUpdate. A missing ack leads the
// sender to suspect its successor and re-route the ring.
type ReplicaAck struct {
	From  NodeID
	Epoch uint64
	Round uint64 // echoes ReplicaUpdate.Round
}

// Kind implements Message.
func (*ReplicaAck) Kind() string { return "replica-ack" }

// WireSize implements Message.
func (m *ReplicaAck) WireSize() int { return headerSize }

// ---------------------------------------------------------------------
// Job/task records shared by coordinator and replication
// ---------------------------------------------------------------------

// TaskState is the coordinator-side scheduling state of a job.
type TaskState uint8

const (
	// TaskPending means not yet assigned to any server.
	TaskPending TaskState = iota
	// TaskOngoing means assigned to a server, result not yet received.
	TaskOngoing
	// TaskFinished means a result is stored on the coordinator.
	TaskFinished
)

// String returns the lower-case state name.
func (s TaskState) String() string {
	switch s {
	case TaskPending:
		return "pending"
	case TaskOngoing:
		return "ongoing"
	case TaskFinished:
		return "finished"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// JobRecord is the database record of one client RPC call on a
// coordinator, including its replication-relevant scheduling state.
// Replica coordinators apply the paper's rules: finished tasks are not
// rescheduled; ongoing tasks are not scheduled until the replica
// suspects its predecessor; pending tasks are scheduled.
type JobRecord struct {
	Call       CallID
	Service    string
	Params     []byte
	ExecTime   time.Duration
	ResultSize int
	State      TaskState
	Instance   uint32 // highest task instance created so far
	Output     []byte // result payload when State == TaskFinished
	ResultErr  string
	Server     NodeID // worker that produced the stored result
}

func (j *JobRecord) wireSize() int {
	// Replication ships the job description; result payloads move only
	// when present (finished tasks), file archives are never replicated.
	return headerSize + len(j.Service) + len(j.Params) + len(j.Output) + len(j.ResultErr)
}
