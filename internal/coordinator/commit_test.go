package coordinator

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/node/nodetest"
	"rpcv/internal/obs"
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

// A reply that waits for the disk leaves once the transition's header
// is durable, and no sooner; replies that wait leave in the order they
// were decided; an assignment, like any message whose loss recovery
// repairs, does not wait; and a reply whose header failed is withheld.
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
	if got := kinds(env.Take()); !slices.Equal(got, []string{"heartbeat-ack"}) {
		t.Fatalf("while the commit was in flight: sent %v, want the assignment alone", got)
	}
	d.Settle() // completes them, and commits the assignments
	if got := kinds(env.Take()); !slices.Equal(got, []string{"submit-ack", "submit-ack"}) {
		t.Fatalf("after the first commit: sent %v, want the two SubmitAcks", got)
	}
	d.Settle()
	if msgs := env.Take(); len(msgs) != 0 {
		t.Fatalf("after the assignments' commit: sent %v, want nothing", kinds(msgs))
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

// A server's result and its next pull in one window: the next task
// leaves in the pull's handler run, while the TaskResultAck waits for
// the finished header, and the gate counts what it held by kind.
func TestAssignmentLeavesBeforeItsHeaderIsDurable(t *testing.T) {
	d := nodetest.NewCrashDisk(t, "batch")
	env := nodetest.NewEnv("co", d.Disk)
	cfg := commitConfig()
	cfg.Obs = obs.New("co")
	co := New(cfg)
	co.Start(env)
	reg := cfg.Obs.Registry()
	held := func(kind string) float64 {
		v, _ := reg.Value("rpcv_coord_replies_held_total", obs.L("node", "co"), obs.L("kind", kind))
		return v
	}
	heldNow := func() float64 {
		v, _ := reg.Value("rpcv_coord_replies_held", obs.L("node", "co"))
		return v
	}

	co.Receive("cl", submit(1))
	co.Receive("cl", submit(2))
	co.Receive("sv0", pull(1))
	d.Settle()
	d.Settle()
	env.Take() // the SubmitAcks and call 1's assignment

	co.Receive("sv0", taskResult(1))
	co.Receive("sv0", pull(1))
	sent := env.Take()
	if got := kinds(sent); !slices.Equal(got, []string{"heartbeat-ack"}) {
		t.Fatalf("before the commit: sent %v, want the assignment alone", got)
	}
	if tasks := sent[0].(*proto.HeartbeatAck).Tasks; len(tasks) != 1 || tasks[0].Task.Call != call(2) {
		t.Fatalf("the pull was assigned %v, want call 2", tasks)
	}
	if heldNow() != 1 {
		t.Fatalf("rpcv_coord_replies_held = %v while the TaskResultAck waits, want 1", heldNow())
	}
	d.Settle()
	d.Settle()
	if got := kinds(env.Take()); !slices.Equal(got, []string{"task-result-ack"}) {
		t.Fatalf("after the commit: sent %v, want the TaskResultAck", got)
	}
	if s, r, h := held("submit-ack"), held("task-result-ack"), heldNow(); s != 2 || r != 1 || h != 0 {
		t.Fatalf("held submit-acks %v, task-result-acks %v, held now %v; want 2, 1 and 0", s, r, h)
	}
	if _, ok := reg.Value("rpcv_coord_replies_held_total", obs.L("node", "co"), obs.L("kind", "heartbeat-ack")); ok {
		t.Fatal("a series counts held assignments: an assignment is never held")
	}
}

// An assignment the power cut takes away before its header's commit is
// not lost: the coordinator that boots over the disk holds the call
// pending and hands it to the next pull.
func TestLostAssignmentIsHandedOutAgain(t *testing.T) {
	d := nodetest.NewCrashDisk(t, "batch")
	env := nodetest.NewEnv("co", d.Disk)
	co := New(commitConfig())
	co.Start(env)
	co.Receive("cl", submit(1))
	d.Settle()
	d.Settle()
	if got := kinds(env.Take()); !slices.Equal(got, []string{"submit-ack"}) {
		t.Fatalf("sent %v, want the SubmitAck", got)
	}

	co.Receive("sv0", pull(1))
	if got := kinds(env.Take()); !slices.Equal(got, []string{"heartbeat-ack"}) {
		t.Fatalf("sent %v, want the assignment before its commit", got)
	}
	d.Cut.Left = 0 // the power goes before the assignment's header reaches the log
	d.Settle()
	co.Stop()
	if !d.Cut.Off {
		t.Fatal("the commit staged nothing for the cut to take")
	}

	env = nodetest.NewEnv("co", d.Recover())
	co = New(commitConfig())
	co.Start(env)
	co.Receive("sv1", &proto.Heartbeat{From: "sv1", Role: proto.RoleServer, Capacity: 1, WantWork: true})
	sent := env.Take()
	if len(sent) != 1 {
		t.Fatalf("the recovered coordinator sent %v to the next pull, want one assignment", kinds(sent))
	}
	if ack, ok := sent[0].(*proto.HeartbeatAck); !ok || len(ack.Tasks) != 1 || ack.Tasks[0].Task.Call != call(1) {
		t.Fatalf("the recovered coordinator answered the next pull with %v, want call 1's assignment", sent[0])
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
// left before the power went. A TaskResultAck or a result is backed by
// a finished header, or by a durable watermark at or above the call,
// which makes it collected. A coordinator then boots over the disk
// without finding anything corrupt, and holds every call whose
// SubmitAck left as pending and queued, finished or collected: what an
// assignment relies on, since one the cut took away is handed out
// again. The coordinator is driven by hand: the test is its loop.
//
//rpcv:loop-only
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
	finished := func(rec *proto.JobRecord) bool { return rec.State == proto.TaskFinished }
	var accepted []proto.CallID
	for i, s := range sent {
		if s.off || !onlyACut {
			continue // the process did not live to send it, or a write failed under it
		}
		fail := func(what string, c proto.CallID) {
			t.Fatalf("%s: message %d, a %s for %s, left before the cut; the recovered disk does not back it", at, i, what, c)
		}
		switch m := s.msg.(type) {
		case *proto.SubmitAck:
			accepted = append(accepted, m.Call)
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
	for _, c := range accepted {
		rec, status := co.lookup(c)
		switch {
		case status == callCollected:
		case status == callUnknown:
			t.Fatalf("%s: the SubmitAck for %s left before the cut; the recovered coordinator does not know the call", at, c)
		case rec.State == proto.TaskFinished:
		case rec.State != proto.TaskPending || !co.eng.Queued(c):
			t.Fatalf("%s: the SubmitAck for %s left before the cut; the recovered coordinator holds it %v, queued %v, so no pull gets it",
				at, c, rec.State, co.eng.Queued(c))
		}
	}
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
		if _, wait := awaitsCommit(s.msg); wait {
			replies = append(replies, s.msg.Kind())
		}
	}
	want := []string{"submit-ack", "submit-ack", "submit-ack", "task-result-ack", "task-result-ack",
		"results", "results", "task-result-ack", "submit-ack"}
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
