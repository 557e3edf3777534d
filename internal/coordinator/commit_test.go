package coordinator

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/node/nodetest"
	"rpcv/internal/proto"
)

// commitConfig is a ring of one whose suspicion never fires.
func commitConfig() Config {
	return Config{Coordinators: []proto.NodeID{"co"}, MaxTasksPerAck: 2,
		HeartbeatPeriod: 100 * time.Millisecond, HeartbeatTimeout: 24 * time.Hour}
}

func pull(capacity int) *proto.Heartbeat {
	return &proto.Heartbeat{From: "sv0", Role: proto.RoleServer, Capacity: capacity, WantWork: true}
}

func taskResult(seq int) *proto.TaskResult {
	return &proto.TaskResult{From: "sv0", Task: proto.TaskID{Call: call(seq), Instance: 1}, Output: []byte("r")}
}

func kinds(msgs []proto.Message) []string {
	var out []string
	for _, m := range msgs {
		out = append(out, m.Kind())
	}
	return out
}

// A reply that tells of a transition leaves once the transition's
// header is durable, and no sooner; replies leave in the order they
// were decided; a message that tells of no transition does not wait;
// and a reply whose header failed is withheld.
func TestRepliesWaitForTheirCommit(t *testing.T) {
	d := nodetest.NewCrashDisk(t, "batch")
	env := nodetest.NewEnv("co", d.Disk)
	co := New(commitConfig())
	co.Start(env)

	co.Receive("cl", submit(1))
	co.Receive("cl", &proto.SyncRequest{User: "u", Session: 1})
	if got := kinds(env.Take()); !slices.Equal(got, []string{"sync-reply"}) {
		t.Fatalf("before the commit: sent %v, want the SyncReply alone", got)
	}
	co.Receive("cl", submit(2))
	d.Settle() // commits the headers of calls 1 and 2
	co.Receive("sv0", pull(2))
	if msgs := env.Take(); len(msgs) != 0 {
		t.Fatalf("sent %v while the commit was in flight", kinds(msgs))
	}
	d.Settle() // completes them, and commits the assignments
	if got := kinds(env.Take()); !slices.Equal(got, []string{"submit-ack", "submit-ack"}) {
		t.Fatalf("after the first commit: sent %v, want the two SubmitAcks and not the assignment", got)
	}
	d.Settle()
	if got := kinds(env.Take()); !slices.Equal(got, []string{"heartbeat-ack"}) {
		t.Fatalf("after the second commit: sent %v, want the assignment", got)
	}

	d.Plan.TornWrites(1) // call 3's header; the writes after it go through
	co.Receive("cl", submit(3))
	d.Settle()
	d.Settle() // the failure arrives
	co.Receive("cl", submit(4))
	d.Settle()
	d.Settle()
	acks := env.Take()
	if len(acks) != 1 || acks[0].(*proto.SubmitAck).Call != call(4) {
		t.Fatalf("sent %v after call 3's header failed and call 4's went through, want call 4's SubmitAck alone", kinds(acks))
	}
	if !slices.ContainsFunc(env.Logs(), func(l string) bool { return strings.Contains(l, "persist job "+call(3).String()) }) {
		t.Fatalf("the failed header was not logged: %q", env.Logs())
	}
}

// sentMsg is one message the coordinator sent, and whether the power
// had gone when it left.
type sentMsg struct {
	msg proto.Message
	off bool
}

// sentEnv records what leaves, beside whether the process it models
// was still alive to send it.
type sentEnv struct {
	*nodetest.Env
	cut  *nodetest.PowerCut
	sent []sentMsg
}

func (e *sentEnv) Send(to proto.NodeID, msg proto.Message) {
	e.sent = append(e.sent, sentMsg{msg, e.cut.Off})
	e.Env.Send(to, msg)
}

// runCommitScenario takes four calls through submit, assignment,
// result, a poll that fetches them, one pushed result and a poll that
// acknowledges — and so collects — the first three. Each window is what
// the loop handles while one group commit is in flight; on engine
// "batch" the next one settles it.
func runCommitScenario(d *nodetest.CrashDisk) []sentMsg {
	env := &sentEnv{Env: nodetest.NewEnv("co", d.Disk), cut: d.Cut}
	co := New(commitConfig())
	co.Start(env)
	type in struct {
		from proto.NodeID
		msg  proto.Message
	}
	windows := [][]in{
		{{"cl", submit(1)}, {"cl", submit(2)}},
		{{"sv0", pull(2)}, {"cl", submit(3)}},
		{{"sv0", taskResult(1)}, {"sv0", taskResult(2)}, {"sv0", pull(1)}},
		{{"cl", &proto.Poll{User: "u", Session: 1}}, {"sv0", taskResult(3)}},
		{{"cl", &proto.Poll{User: "u", Session: 1, Ack: 3}}, {"cl", submit(4)}},
		{{"sv0", pull(1)}},
	}
	for _, w := range windows {
		for _, m := range w {
			co.Receive(m.from, m.msg)
		}
		d.Settle()
		env.Advance(time.Millisecond)
	}
	for range 3 { // the deletes of the collected calls: the flush timer stages them
		env.Advance(flushBeats * commitConfig().HeartbeatPeriod)
		d.Settle()
	}
	co.Stop()
	return env.sent
}

// checkCommitRecovered holds the recovered disk to every reply that
// left before the power went: a SubmitAck is backed by the call's
// header, an assignment by a header at that instance that is no longer
// pending (or at a later one), a TaskResultAck or a result by a
// finished header — or, for each, by a durable watermark at or above
// the call, which makes it collected. A coordinator then boots over
// the disk without finding anything corrupt.
func checkCommitRecovered(t *testing.T, at string, disk node.Disk, sent []sentMsg, onlyACut bool) {
	t.Helper()
	var w proto.RPCSeq
	if raw, ok := disk.Read(markKey(sessionKey{"u", 1})); ok {
		v, _ := binary.Uvarint(raw)
		w = proto.RPCSeq(v)
	}
	var dec proto.Decoder
	backed := func(c proto.CallID, holds func(*proto.JobRecord) bool) bool {
		if c.Seq <= w {
			return true
		}
		e, ok := jobs.Load(disk, c.String())
		if !ok {
			return false
		}
		rec, err := dec.DecodeJobHeader(e.Data, e.Blobs[0], e.Blobs[1])
		return err == nil && holds(rec)
	}
	known := func(*proto.JobRecord) bool { return true }
	finished := func(rec *proto.JobRecord) bool { return rec.State == proto.TaskFinished }
	for i, s := range sent {
		if s.off || !onlyACut {
			continue // the process did not live to send it, or a write failed under it
		}
		fail := func(what string, c proto.CallID) {
			t.Fatalf("%s: message %d, a %s for %s, left before the cut; the recovered disk does not back it", at, i, what, c)
		}
		switch m := s.msg.(type) {
		case *proto.SubmitAck:
			if !backed(m.Call, known) {
				fail("SubmitAck", m.Call)
			}
		case *proto.HeartbeatAck:
			for _, ta := range m.Tasks {
				assigned := func(rec *proto.JobRecord) bool {
					return rec.Instance > ta.Task.Instance || rec.Instance == ta.Task.Instance && rec.State != proto.TaskPending
				}
				if !backed(ta.Task.Call, assigned) {
					fail(fmt.Sprintf("assignment of instance %d", ta.Task.Instance), ta.Task.Call)
				}
			}
		case *proto.TaskResultAck:
			if !backed(m.Task.Call, finished) {
				fail("TaskResultAck", m.Task.Call)
			}
		case *proto.Results:
			for _, res := range m.Results {
				if !backed(res.Call, finished) {
					fail("result", res.Call)
				}
			}
		}
	}
	env := nodetest.NewEnv("co", disk)
	co := New(commitConfig())
	co.Start(env)
	co.Stop()
	for _, line := range env.Logs() {
		if onlyACut && strings.Contains(line, "corrupt") {
			t.Fatalf("%s: %s", at, line)
		}
	}
}

// TestOutputCommitCrashOracle kills the coordinator at every operation
// of the scenario (nodetest.EveryCrash), on a group commit whose batch
// a crash loses ("batch") as well as on the two engines that complete
// at once: whatever it told a client or a server before it died, the
// disk it left says too.
func TestOutputCommitCrashOracle(t *testing.T) {
	d := nodetest.NewCrashDisk(t, "batch")
	var replies []string
	for _, s := range runCommitScenario(d) {
		if awaitsCommit(s.msg) {
			replies = append(replies, s.msg.Kind())
		}
	}
	want := []string{"submit-ack", "submit-ack", "heartbeat-ack", "submit-ack", "task-result-ack", "task-result-ack",
		"heartbeat-ack", "results", "results", "task-result-ack", "submit-ack", "heartbeat-ack"}
	if !slices.Equal(replies, want) {
		t.Fatalf("the uncut scenario's replies that wait for a commit: %v, want %v", replies, want)
	}
	disk := d.Recover()
	if keys := append(disk.Keys(jobs.Headers), disk.Keys(markPrefix)...); !slices.Equal(keys, []string{"coord/job/u/1/4", "coord/w/u/1"}) {
		t.Fatalf("the uncut scenario left %v: the collection of calls 1-3 did not reach the disk", keys)
	}
	nodetest.EveryCrash(t, runCommitScenario,
		func(at string, disk node.Disk, sent []sentMsg, onlyACut bool) {
			checkCommitRecovered(t, at, disk, sent, onlyACut)
		}, "memory", "wal", "batch")
}

// A queue that never empties — a commit always in flight behind the
// one completing — stays on its array and in order.
func TestFifoThatNeverEmptiesStaysOnItsArray(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	for range 10 {
		q.push(next)
		next++
	}
	for range 10_000 {
		q.push(next)
		next++
		if got := q.pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	if q.len() != 10 || cap(q.buf) > 32 {
		t.Fatalf("%d queued on an array of %d, want 10 on one of a few dozen at most", q.len(), cap(q.buf))
	}
}
