package coordinator

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"rpcv/internal/node/nodetest"
	"rpcv/internal/proto"
	"rpcv/internal/store"
)

// finishCalls takes calls 1..n of session u/1 through submit, one pull
// by sv0 and a result each, and returns their tasks.
func (r *persistRig) finishCalls(n int) []proto.TaskID {
	r.t.Helper()
	for seq := 1; seq <= n; seq++ {
		r.deliver("cl", submit(seq))
	}
	var tasks []proto.TaskID
	for _, m := range r.deliver("sv0", &proto.Heartbeat{From: "sv0", Role: proto.RoleServer, Capacity: n, WantWork: true}) {
		if ack, ok := m.(*proto.HeartbeatAck); ok {
			for _, ta := range ack.Tasks {
				tasks = append(tasks, ta.Task)
			}
		}
	}
	if len(tasks) != n {
		r.t.Fatalf("assigned %d of %d calls", len(tasks), n)
	}
	for _, task := range tasks {
		r.deliver("sv0", &proto.TaskResult{From: "sv0", Task: task, Output: []byte("r")})
	}
	return tasks
}

// settle lets the flush timer run and what it stages complete: the
// watermark first, then the deletes that wait for it to be durable.
func (r *persistRig) settle() {
	for range 3 {
		r.env.Advance(flushBeats * r.cfg.HeartbeatPeriod)
		_ = r.disk.Sync() // a barrier only: a broken disk shows in what follows
		r.disk.drain()
	}
}

// TestCollectedCallIsNeverKnownAgain is the guard behind "no record":
// once a session's Poll has acknowledged a call and the coordinator has
// let it go, every message that used to take an absent record for a
// call never seen — a duplicate Submit, a late TaskResult, a ServerSync
// offering its result, a replica's copy — is answered as for a finished
// call and changes nothing: no record comes back, nothing is handed to a
// server. Before a restart and after one, on the watermark the store
// kept.
func TestCollectedCallIsNeverKnownAgain(t *testing.T) {
	for _, engine := range []string{"memory", "wal"} {
		t.Run(engine, func(t *testing.T) {
			r := newPersistRig(t, engine, Config{MaxTasksPerAck: 8}, nil)
			tasks := r.finishCalls(3)
			r.deliver("cl", &proto.Poll{User: "u", Session: 1})         // fetches the three results
			r.deliver("cl", &proto.Poll{User: "u", Session: 1, Ack: 3}) // acknowledges them
			r.settle()
			if n, w := r.co.DB().Len(), r.co.Collected("u", 1); n != 0 || w != 3 {
				t.Fatalf("after Poll{Ack: 3}: %d records, watermark %d; want 0 and 3", n, w)
			}
			if keys := r.disk.Keys("coord/job/"); len(keys) != 0 {
				t.Fatalf("headers left on the disk: %v", keys)
			}
			pending := proto.JobRecord{Call: call(2), Service: "synthetic", Params: []byte("p"), State: proto.TaskPending}
			guards := []struct {
				name  string
				from  proto.NodeID
				msg   func() proto.Message
				reply func(proto.Message) bool // recognises the answer a finished call would get
			}{
				{"duplicate Submit", "cl", func() proto.Message { return submit(2) },
					func(m proto.Message) bool {
						a, ok := m.(*proto.SubmitAck)
						return ok && a.Call == call(2) && a.MaxSeq == 3
					}},
				{"late TaskResult", "sv0", func() proto.Message {
					return &proto.TaskResult{From: "sv0", Task: tasks[1], Output: []byte("again")}
				}, func(m proto.Message) bool { a, ok := m.(*proto.TaskResultAck); return ok && a.Task == tasks[1] }},
				{"ServerSync offering", "sv0", func() proto.Message {
					return &proto.ServerSync{From: "sv0", Tasks: []proto.TaskID{tasks[1]}}
				}, func(m proto.Message) bool {
					a, ok := m.(*proto.ServerSyncReply)
					return ok && len(a.Resend) == 0 && slices.Equal(a.Drop, []proto.TaskID{tasks[1]})
				}},
				{"ReplicaUpdate", "co2", func() proto.Message {
					return &proto.ReplicaUpdate{From: "co2", Epoch: 1, Round: 1, Jobs: []proto.JobRecord{pending}}
				}, func(m proto.Message) bool { _, ok := m.(*proto.ReplicaAck); return ok }},
			}
			for _, when := range []string{"before a restart", "after a restart"} {
				for _, g := range guards {
					stale := r.co.StatsNow().Stale
					sent := r.deliver(g.from, g.msg())
					if g.reply != nil && !slices.ContainsFunc(sent, g.reply) {
						t.Errorf("%s, %s: answered %v", g.name, when, sent)
					}
					pull := r.deliver("sv0", &proto.Heartbeat{From: "sv0", Role: proto.RoleServer, Capacity: 8, WantWork: true})
					for _, m := range pull {
						if ack, ok := m.(*proto.HeartbeatAck); ok && len(ack.Tasks) != 0 {
							t.Errorf("%s, %s: a collected call was handed to a server: %v", g.name, when, ack.Tasks)
						}
					}
					if n := r.co.DB().Len(); n != 0 {
						t.Errorf("%s, %s: the job table holds %d records again", g.name, when, n)
					}
					if got := r.co.StatsNow().Stale; got <= stale {
						t.Errorf("%s, %s: not counted as stale (%d -> %d)", g.name, when, stale, got)
					}
				}
				if keys := r.disk.Keys("coord/job/"); len(keys) != 0 {
					t.Errorf("%s: headers on the disk: %v", when, keys)
				}
				r.restart()
				if w := r.co.Collected("u", 1); w != 3 {
					t.Fatalf("watermark after a restart = %d, want 3", w)
				}
			}
			// The session goes on above the watermark as if nothing had gone.
			sent := r.deliver("cl", submit(4))
			if a, ok := sent[len(sent)-1].(*proto.SubmitAck); !ok || a.MaxSeq != 4 || r.co.DB().Len() != 1 {
				t.Fatalf("submit 4 after collection: %v, %d records", sent, r.co.DB().Len())
			}
			sent = r.deliver("cl", &proto.SyncRequest{User: "u", Session: 1})
			if a, ok := sent[len(sent)-1].(*proto.SyncReply); !ok || a.Collected != 3 || a.MaxSeq != 4 || !slices.Equal(a.Known, []proto.RPCSeq{4}) {
				t.Fatalf("sync reply after collection: %+v", sent[len(sent)-1])
			}
		})
	}
}

// In a ring of one nothing is dirty: there is no round to clean the
// set, which used to hold a CallID per call for ever. The first fellow
// coordinator the ring hears of is owed what is still stored — and not
// what has been collected meanwhile.
func TestRingOfOneKeepsNothingDirtyUntilASuccessorJoins(t *testing.T) {
	w, co, p := rig(t, Config{MaxTasksPerAck: 8})
	for seq := 1; seq <= 3; seq++ {
		p.env.Send("co", submit(seq))
	}
	w.RunFor(time.Second)
	p.env.Send("co", &proto.Heartbeat{From: "peer", Role: proto.RoleServer, Capacity: 8, WantWork: true})
	w.RunFor(time.Second)
	for _, ta := range p.last().(*proto.HeartbeatAck).Tasks[:2] {
		p.env.Send("co", &proto.TaskResult{From: "peer", Task: ta.Task, Output: []byte("r")})
	}
	w.RunFor(time.Second)
	w.Schedule(0, co.ReplicateNow) // no successor: must not start a round
	p.env.Send("co", &proto.Poll{User: "u", Session: 1, Ack: 1})
	w.RunFor(time.Second)
	// Nothing is dirty, so call 1 does not wait for a round that will
	// never come: it goes with the Poll that acknowledges it.
	if st := co.StatsNow(); co.ReplicationInFlight() || st.Jobs != 2 || st.CollectWaiting != 0 {
		t.Fatalf("round in flight %v, %+v; want call 1 collected at once", co.ReplicationInFlight(), st)
	}

	// A second coordinator shows up.
	p.inbox = nil
	p.env.Send("co", &proto.Heartbeat{From: "peer", Role: proto.RoleCoordinator})
	w.RunFor(time.Second)
	w.Schedule(0, co.ReplicateNow)
	w.RunFor(time.Second)
	var update *proto.ReplicaUpdate
	for _, m := range p.inbox {
		if u, ok := m.(*proto.ReplicaUpdate); ok {
			update = u
		}
	}
	if update == nil {
		t.Fatalf("no round to the new successor; inbox %v", p.inbox)
	}
	var sent []proto.RPCSeq
	for _, job := range update.Jobs {
		sent = append(sent, job.Call.Seq)
	}
	if !slices.Equal(sent, []proto.RPCSeq{2, 3}) {
		t.Fatalf("the first round carries calls %v, want what is still stored: [2 3]", sent)
	}
	if len(update.MaxSeqs) != 1 || update.MaxSeqs[0].Collected != 1 {
		t.Fatalf("the first round's session entries %+v do not carry watermark 1", update.MaxSeqs)
	}
	// From here on the ring replicates as any other: a finish is dirty
	// until acknowledged, and collected only then.
	p.env.Send("co", &proto.ReplicaAck{From: "peer", Epoch: update.Epoch, Round: update.Round})
	p.env.Send("co", &proto.Poll{User: "u", Session: 1, Ack: 2})
	w.RunFor(time.Second)
	if n := co.DB().Len(); n != 1 {
		t.Fatalf("%d records after the successor acknowledged call 2's finish and the client its result, want 1", n)
	}
}

// A finished call the client has acknowledged is kept while a
// successor has not heard of the finish, and goes when the round that
// carries it is acknowledged — never before, so a replica cannot be
// left believing a collected call unfinished.
func TestDirtyRecordWaitsForItsRound(t *testing.T) {
	w, co, p := rig(t, Config{Coordinators: []proto.NodeID{"co", "peer"}, MaxTasksPerAck: 8})
	p.env.Send("co", submit(1))
	w.RunFor(time.Second)
	p.env.Send("co", &proto.Heartbeat{From: "peer", Role: proto.RoleServer, Capacity: 8, WantWork: true})
	w.RunFor(time.Second)
	task := p.last().(*proto.HeartbeatAck).Tasks[0].Task
	p.env.Send("co", &proto.TaskResult{From: "peer", Task: task, Output: []byte("r")})
	p.env.Send("co", &proto.Poll{User: "u", Session: 1, Ack: 1})
	w.RunFor(time.Second)
	if st := co.StatsNow(); st.Jobs != 1 || st.CollectWaiting != 1 || st.Collected != 0 {
		t.Fatalf("before the round: %+v; want the record kept and waiting", st)
	}
	p.inbox = nil
	w.Schedule(0, co.ReplicateNow)
	w.RunFor(time.Second)
	update, ok := p.last().(*proto.ReplicaUpdate)
	if !ok || len(update.Jobs) != 1 || update.Jobs[0].State != proto.TaskFinished {
		t.Fatalf("round = %+v, want call 1 finished", p.last())
	}
	if co.DB().Len() != 1 {
		t.Fatal("collected before the successor acknowledged the finish")
	}
	p.env.Send("co", &proto.ReplicaAck{From: "peer", Epoch: update.Epoch, Round: update.Round})
	w.RunFor(time.Second)
	if st := co.StatsNow(); st.Jobs != 0 || st.CollectWaiting != 0 || st.Collected != 1 {
		t.Fatalf("after the ack: %+v; want the record gone", st)
	}
}

// A replica learns the watermark from the session entries of the
// rounds it receives, after the jobs of the same round: a finish the
// round carries is stored and counted before the watermark lets it go.
func TestReplicaLearnsTheWatermark(t *testing.T) {
	finished := 0
	w, co, p := rig(t, Config{Coordinators: []proto.NodeID{"a", "co"},
		OnJobFinished: func(proto.CallID, time.Time) { finished++ }})
	job := func(seq int) proto.JobRecord {
		return proto.JobRecord{Call: call(seq), Service: "synthetic", State: proto.TaskFinished, Output: []byte("r"), Server: "sv"}
	}
	p.env.Send("co", &proto.ReplicaUpdate{From: "peer", Epoch: 1, Round: 1,
		Jobs:    []proto.JobRecord{job(1), job(2), job(3)},
		MaxSeqs: []proto.SessionMax{{User: "u", Session: 1, MaxSeq: 3, Collected: 2}}})
	w.RunFor(time.Second)
	if finished != 3 || co.DB().Len() != 1 || co.Collected("u", 1) != 2 {
		t.Fatalf("finished %d, %d records, watermark %d; want 3, 1 (call 3) and 2", finished, co.DB().Len(), co.Collected("u", 1))
	}
	// The tail: the watermark alone, once the session's last results
	// are acknowledged.
	p.env.Send("co", &proto.ReplicaUpdate{From: "peer", Epoch: 1, Round: 2,
		MaxSeqs: []proto.SessionMax{{User: "u", Session: 1, MaxSeq: 3, Collected: 3}}})
	w.RunFor(time.Second)
	if co.DB().Len() != 0 {
		t.Fatalf("%d records after watermark 3", co.DB().Len())
	}
	// After the primary is gone, the session's first Poll here is
	// answered from what is held above the watermark.
	p.env.Send("co", &proto.ReplicaUpdate{From: "peer", Epoch: 1, Round: 3, Jobs: []proto.JobRecord{job(4)},
		MaxSeqs: []proto.SessionMax{{User: "u", Session: 1, MaxSeq: 4, Collected: 3}}})
	w.RunFor(time.Second)
	if got := pollSeqs(t, w, p, &proto.Poll{User: "u", Session: 1, Ack: 3}); !slices.Equal(got, []proto.RPCSeq{4}) {
		t.Fatalf("first poll on the replica returned %v, want [4]", got)
	}
}

// The deletes cost no commit of their own: on a disk that batches they
// wait for the next header the coordinator writes anyway, and ride it.
func TestCollectionRidesTheNextPersist(t *testing.T) {
	counted := &opCounter{}
	r := newPersistRig(t, "memory", Config{MaxTasksPerAck: 8}, func(s store.Store) store.Store { counted.Store = s; return counted })
	r.finishCalls(2)
	r.deliver("cl", &proto.Poll{User: "u", Session: 1})
	before := len(counted.log)
	r.co.Receive("cl", &proto.Poll{User: "u", Session: 1, Ack: 2})
	if len(counted.log) != before || r.co.DB().Len() != 0 {
		t.Fatalf("the Poll itself touched the disk %d times (table %d records); collection frees memory at once and the disk later",
			len(counted.log)-before, r.co.DB().Len())
	}
	r.deliver("cl", submit(3))
	want := []string{
		"write coord/w/u/1", "delete coord/job/u/1/1", "delete coord/job/u/1/2", "write coord/job/u/1/3",
	}
	if got := counted.log[len(counted.log)-4:]; !slices.Equal(got, want) {
		t.Fatalf("the submit's persist staged %v, want the watermark, the deletes and then its own header: %v", got, want)
	}
}

// A collected 64 KiB call leaves the disk in one group commit: its two
// blobs and its header are staged together, blobs first, and the commit
// that takes the first takes them all.
func TestCollectionDeletesALargeCallInOneCommit(t *testing.T) {
	d := nodetest.NewCrashDisk(t, "batch")
	env := nodetest.NewEnv("co", d.Disk)
	co := New(commitConfig())
	co.Start(env)
	step := func(from proto.NodeID, msg proto.Message) {
		co.Receive(from, msg)
		d.Settle()
		d.Settle()
	}
	big := bytes.Repeat([]byte{7}, 64<<10)
	step("cl", &proto.Submit{Call: call(1), Service: "echo", Params: big})
	step("sv0", pull(1))
	step("sv0", &proto.TaskResult{From: "sv0", Task: proto.TaskID{Call: call(1), Instance: 1}, Output: big})
	step("cl", &proto.Poll{User: "u", Session: 1})
	step("cl", &proto.Poll{User: "u", Session: 1, Ack: 1})
	if co.DB().Len() != 0 {
		t.Fatal("the acknowledged call is still in the job table")
	}
	// The first flush makes the watermark durable, the second stages the
	// deletes; one commit after that, nothing of the call is left.
	env.Advance(flushBeats * commitConfig().HeartbeatPeriod)
	d.Settle()
	d.Settle()
	env.Advance(flushBeats * commitConfig().HeartbeatPeriod)
	d.Settle()
	disk := d.Recover()
	if left := append(disk.Keys("coord/job/"), disk.Keys("coord/blob/")...); len(left) != 0 {
		t.Fatalf("one commit after the collection's deletes were staged, the disk holds %v", left)
	}
	if raw, _ := disk.Read(markKey(sessionKey{"u", 1})); len(raw) != 1 || raw[0] != 1 {
		t.Fatalf("watermark on the disk: %v, want 1", raw)
	}
}

// A collection the power cuts short between a 64 KiB call's blob deletes
// and its header's leaves a header short of its blobs. That is not
// corruption: the next boot knows the call collected, loads nothing of
// it, logs nothing corrupt, and its next flush finishes the collection.
func TestCutShortCollectionIsFinishedAtTheNextBoot(t *testing.T) {
	for blobsGone := 1; blobsGone <= 2; blobsGone++ {
		d := nodetest.NewCrashDisk(t, "memory")
		env := nodetest.NewEnv("co", d.Disk)
		co := New(commitConfig())
		co.Start(env)
		big := bytes.Repeat([]byte{7}, 64<<10)
		co.Receive("cl", &proto.Submit{Call: call(1), Service: "echo", Params: big})
		co.Receive("sv0", pull(1))
		co.Receive("sv0", &proto.TaskResult{From: "sv0", Task: proto.TaskID{Call: call(1), Instance: 1}, Output: big})
		co.Receive("cl", &proto.Poll{User: "u", Session: 1})
		co.Receive("cl", &proto.Poll{User: "u", Session: 1, Ack: 1})
		d.Cut.Left = 1 + blobsGone // the watermark, then the first blob deletes
		env.Advance(flushBeats * commitConfig().HeartbeatPeriod)
		co.Stop()

		disk := d.Recover()
		if _, ok := disk.Read(jobs.Headers + call(1).String()); !ok {
			t.Fatalf("%d blobs gone: the cut left no header; the test cuts in the wrong place", blobsGone)
		}
		env = nodetest.NewEnv("co", disk)
		co = New(commitConfig())
		co.Start(env)
		if n := co.DB().Len(); n != 0 {
			t.Fatalf("%d blobs gone: the next boot loaded %d records", blobsGone, n)
		}
		env.Advance(flushBeats * commitConfig().HeartbeatPeriod)
		if left := append(disk.Keys(jobs.Headers), disk.Keys(jobs.Blobs)...); len(left) != 0 {
			t.Fatalf("%d blobs gone: after the next boot's flush the disk holds %v", blobsGone, left)
		}
		for _, line := range env.Logs() {
			if strings.Contains(line, "corrupt") {
				t.Fatalf("%d blobs gone: %s", blobsGone, line)
			}
		}
	}
}

// A watermark whose write failed allows no delete: the session's
// records stay on the disk until a retry has made the watermark
// durable. A restart in between reloads them — the next Poll collects
// them again — instead of finding, where the watermark should be,
// calls it has never heard of.
func TestFailedWatermarkWriteWithholdsTheDeletes(t *testing.T) {
	for _, engine := range []string{"memory", "wal"} {
		t.Run(engine, func(t *testing.T) {
			plan := &store.FaultPlan{}
			r := newPersistRig(t, engine, Config{MaxTasksPerAck: 8}, func(s store.Store) store.Store { return store.WithFaults(s, plan) })
			r.finishCalls(2)
			r.deliver("cl", &proto.Poll{User: "u", Session: 1})
			r.deliver("cl", &proto.Poll{User: "u", Session: 1, Ack: 2})
			plan.TornWrites(1) // the next flush's first write: the watermark
			r.deliver("cl", submit(3))
			if got := r.disk.Keys(jobs.Headers); len(got) != 3 {
				t.Fatalf("headers on the disk after the watermark's write failed: %v, want those of all three calls", got)
			}

			r.restart()
			if n := r.co.DB().Len(); n != 3 {
				t.Fatalf("reloaded %d records, want 3: the two collected calls' records were still there", n)
			}
			for _, m := range r.deliver("cl", submit(1)) {
				if _, ok := m.(*proto.SubmitAck); !ok {
					t.Fatalf("duplicate Submit of an acknowledged call answered with %T", m)
				}
			}
			for _, m := range r.deliver("sv0", &proto.Heartbeat{From: "sv0", Role: proto.RoleServer, Capacity: 8, WantWork: true}) {
				if ack, ok := m.(*proto.HeartbeatAck); ok && (len(ack.Tasks) != 1 || ack.Tasks[0].Task.Call != call(3)) {
					t.Fatalf("a pull after the restart was handed %v, want call 3 alone", ack.Tasks)
				}
			}
			r.deliver("cl", &proto.Poll{User: "u", Session: 1, Ack: 2})
			r.settle()
			got := append(r.disk.Keys(jobs.Headers), r.disk.Keys(markPrefix)...)
			if want := []string{"coord/job/u/1/3", "coord/w/u/1"}; !slices.Equal(got, want) {
				t.Fatalf("keys once the retry went through: %v, want %v", got, want)
			}
		})
	}
}

// opCounter records the durable operations a store is asked for.
type opCounter struct {
	store.Store
	log []string
}

func (c *opCounter) note(op, key string) { c.log = append(c.log, op+" "+key) }
func (c *opCounter) Write(key string, v []byte) error {
	c.note("write", key)
	return c.Store.Write(key, v)
}
func (c *opCounter) WriteAsync(key string, v []byte, done func(error)) {
	c.note("write", key)
	c.Store.WriteAsync(key, v, done)
}
func (c *opCounter) DeleteAsync(key string, done func(error)) {
	c.note("delete", key)
	c.Store.DeleteAsync(key, done)
}
func (c *opCounter) Delete(key string) error {
	c.note("delete", key)
	return c.Store.Delete(key)
}
