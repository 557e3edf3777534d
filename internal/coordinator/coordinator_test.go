package coordinator

import (
	"testing"
	"time"

	"rpcv/internal/db"
	"rpcv/internal/node"
	"rpcv/internal/proto"
	"rpcv/internal/shard"
	"rpcv/internal/sim"
)

// peer is a scripted counterpart node (client or server stand-in).
type peer struct {
	env   node.Env
	inbox []proto.Message
}

func (p *peer) Start(env node.Env)                      { p.env = env }
func (p *peer) Receive(_ proto.NodeID, m proto.Message) { p.inbox = append(p.inbox, m) }
func (p *peer) Stop()                                   {}

func (p *peer) last() proto.Message {
	if len(p.inbox) == 0 {
		return nil
	}
	return p.inbox[len(p.inbox)-1]
}

// rig builds a world with one coordinator under test plus a scripted
// peer. Instant DB keeps timing out of functional assertions.
func rig(t *testing.T, cfg Config) (*sim.World, *Coordinator, *peer) {
	t.Helper()
	if cfg.DBCost == (db.CostModel{}) {
		cfg.DBCost = db.CostModel{PerOp: time.Microsecond}
	}
	if len(cfg.Coordinators) == 0 {
		cfg.Coordinators = []proto.NodeID{"co"}
	}
	w := sim.NewWorld(sim.Config{Seed: 3})
	co := New(cfg)
	p := &peer{}
	w.AddNode("co", co)
	w.AddNode("peer", p)
	w.Start("co")
	w.Start("peer")
	return w, co, p
}

func call(seq int) proto.CallID {
	return proto.CallID{User: "u", Session: 1, Seq: proto.RPCSeq(seq)}
}

func submit(seq int) *proto.Submit {
	return &proto.Submit{Call: call(seq), Service: "synthetic", Params: []byte("p"),
		ExecTime: time.Second, ResultSize: 4}
}

func TestSubmitRegistersAndAcks(t *testing.T) {
	w, co, p := rig(t, Config{})
	p.env.Send("co", submit(1))
	w.RunFor(time.Second)
	ack, ok := p.last().(*proto.SubmitAck)
	if !ok {
		t.Fatalf("last message = %T, want SubmitAck", p.last())
	}
	if ack.Call != call(1) || ack.MaxSeq != 1 {
		t.Fatalf("ack = %+v", ack)
	}
	if co.StatsNow().JobsAccepted != 1 {
		t.Fatal("job not accepted")
	}
}

// TestZeroDBCostIsFree is the line between the two worlds, seen from
// the coordinator: with no cost model — every real-runtime boot; only
// internal/cluster sets one — a reply leaves in the handler run that
// produced it, and the statements are still counted.
func TestZeroDBCostIsFree(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 3}) // nil network: delivery takes no virtual time
	co, p := New(Config{Coordinators: []proto.NodeID{"co"}}), &peer{}
	w.AddNode("co", co)
	w.AddNode("peer", p)
	w.Start("co")
	w.Start("peer")
	p.env.Send("co", submit(1))
	w.RunFor(0)
	if _, ok := p.last().(*proto.SubmitAck); !ok || w.Elapsed() != 0 {
		t.Fatalf("at +%v the submitter holds %T, want the SubmitAck at +0s", w.Elapsed(), p.last())
	}
	if co.DB().Ops() == 0 {
		t.Fatal("a free statement must still be counted")
	}
}

func TestDuplicateSubmitIdempotent(t *testing.T) {
	w, co, p := rig(t, Config{})
	p.env.Send("co", submit(1))
	p.env.Send("co", submit(1))
	w.RunFor(time.Second)
	if n := co.StatsNow().JobsAccepted; n != 1 {
		t.Fatalf("accepted %d jobs from duplicate submit, want 1", n)
	}
}

func TestFCFSAssignmentOrder(t *testing.T) {
	w, co, p := rig(t, Config{MaxTasksPerAck: 10})
	for i := 1; i <= 3; i++ {
		p.env.Send("co", submit(i))
	}
	w.RunFor(time.Second)
	p.env.Send("co", &proto.Heartbeat{From: "peer", Role: proto.RoleServer, Capacity: 10, WantWork: true})
	w.RunFor(time.Second)
	ack, ok := p.last().(*proto.HeartbeatAck)
	if !ok {
		t.Fatalf("last = %T", p.last())
	}
	if len(ack.Tasks) != 3 {
		t.Fatalf("assigned %d tasks, want 3", len(ack.Tasks))
	}
	for i, task := range ack.Tasks {
		if task.Task.Call.Seq != proto.RPCSeq(i+1) {
			t.Fatalf("assignment order %v not FCFS", ack.Tasks)
		}
	}
	if st := co.StatsNow(); st.Ongoing != 3 || st.Pending != 0 {
		t.Fatalf("states after assign: %+v", st)
	}
	_ = co
}

func TestMaxTasksPerAckCap(t *testing.T) {
	w, _, p := rig(t, Config{MaxTasksPerAck: 2})
	for i := 1; i <= 5; i++ {
		p.env.Send("co", submit(i))
	}
	w.RunFor(time.Second)
	p.env.Send("co", &proto.Heartbeat{From: "peer", Role: proto.RoleServer, Capacity: 10, WantWork: true})
	w.RunFor(time.Second)
	ack := p.last().(*proto.HeartbeatAck)
	if len(ack.Tasks) != 2 {
		t.Fatalf("assigned %d, want cap 2", len(ack.Tasks))
	}
}

func TestResultStoredAndServed(t *testing.T) {
	w, co, p := rig(t, Config{})
	p.env.Send("co", submit(1))
	w.RunFor(time.Second)
	p.env.Send("co", &proto.Heartbeat{From: "peer", Role: proto.RoleServer, Capacity: 1, WantWork: true})
	w.RunFor(time.Second)
	ack := p.last().(*proto.HeartbeatAck)
	task := ack.Tasks[0].Task

	p.env.Send("co", &proto.TaskResult{From: "peer", Task: task, Output: []byte("result")})
	w.RunFor(time.Second)
	if co.FinishedCount() != 1 {
		t.Fatal("result not recorded")
	}
	// Poll returns it.
	p.env.Send("co", &proto.Poll{User: "u", Session: 1})
	w.RunFor(time.Second)
	res, ok := p.last().(*proto.Results)
	if !ok || len(res.Results) != 1 || string(res.Results[0].Output) != "result" {
		t.Fatalf("poll reply = %+v", p.last())
	}
	// Poll with Have filters it out.
	p.env.Send("co", &proto.Poll{User: "u", Session: 1, Have: []proto.RPCSeq{1}})
	w.RunFor(time.Second)
	res2 := p.last().(*proto.Results)
	if len(res2.Results) != 0 {
		t.Fatal("poll returned already-held result")
	}
	// So does the Ack watermark covering it.
	p.env.Send("co", &proto.Poll{User: "u", Session: 1, Ack: 1})
	w.RunFor(time.Second)
	res3 := p.last().(*proto.Results)
	if len(res3.Results) != 0 {
		t.Fatal("poll returned a result below the Ack watermark")
	}
}

func TestDuplicateResultDeduplicated(t *testing.T) {
	w, co, p := rig(t, Config{})
	p.env.Send("co", submit(1))
	w.RunFor(time.Second)
	task := proto.TaskID{Call: call(1), Instance: 1}
	p.env.Send("co", &proto.TaskResult{From: "peer", Task: task, Output: []byte("a")})
	p.env.Send("co", &proto.TaskResult{From: "peer", Task: task, Output: []byte("b")})
	w.RunFor(time.Second)
	st := co.StatsNow()
	if st.Finished != 1 || st.DupResults != 1 {
		t.Fatalf("finished=%d dup=%d, want 1,1", st.Finished, st.DupResults)
	}
	rec, _ := co.DB().Peek(call(1))
	if string(rec.Output) != "a" {
		t.Fatal("duplicate overwrote first result")
	}
}

func TestServerSuspicionReschedules(t *testing.T) {
	w, co, p := rig(t, Config{HeartbeatTimeout: 10 * time.Second})
	p.env.Send("co", submit(1))
	w.RunFor(time.Second)
	p.env.Send("co", &proto.Heartbeat{From: "peer", Role: proto.RoleServer, Capacity: 1, WantWork: true})
	w.RunFor(time.Second)
	if co.StatsNow().Ongoing != 1 {
		t.Fatal("task not assigned")
	}
	// Silence: the server never comes back.
	w.RunFor(time.Minute)
	st := co.StatsNow()
	if st.Rescheduled != 1 || st.Pending != 1 || st.Ongoing != 0 {
		t.Fatalf("after suspicion: %+v", st)
	}
	// The next instance gets a higher instance number.
	p.env.Send("co", &proto.Heartbeat{From: "peer2", Role: proto.RoleServer, Capacity: 1, WantWork: true})
	w.RunFor(time.Second)
	// peer2 does not exist as a node; inspect the DB instead.
	rec, _ := co.DB().Peek(call(1))
	if rec.Instance != 2 {
		t.Fatalf("instance = %d, want 2", rec.Instance)
	}
}

func TestServerSyncReschedulesLostAssignments(t *testing.T) {
	w, co, p := rig(t, Config{})
	p.env.Send("co", submit(1))
	w.RunFor(time.Second)
	p.env.Send("co", &proto.Heartbeat{From: "peer", Role: proto.RoleServer, Capacity: 1, WantWork: true})
	w.RunFor(time.Second)
	// A sync arriving within the in-flight grace (the assignment may
	// still be racing toward the server) must NOT reschedule.
	p.env.Send("co", &proto.ServerSync{From: "peer"})
	w.RunFor(time.Second)
	if st := co.StatsNow(); st.Rescheduled != 0 {
		t.Fatalf("graced assignment rescheduled prematurely: %+v", st)
	}
	// Past the grace, the same sync reveals the assignment died with a
	// previous incarnation: reschedule. A sync that runs nothing is an
	// offer too, so the call goes straight back to the server that said
	// so, as a second instance.
	w.RunFor(time.Minute)
	p.inbox = nil
	p.env.Send("co", &proto.ServerSync{From: "peer"})
	w.RunFor(time.Second)
	st := co.StatsNow()
	if st.Rescheduled != 1 || st.Pending != 0 || st.Ongoing != 1 || st.PushedTasks != 1 {
		t.Fatalf("lost assignment not rescheduled and pushed back: %+v", st)
	}
	got := acks(p)
	if len(got) != 1 || len(got[0].Tasks) != 1 || got[0].Tasks[0].Task != (proto.TaskID{Call: call(1), Instance: 2}) {
		t.Fatalf("the syncing server was pushed %+v, want call 1 as instance 2", got)
	}
}

func TestServerSyncKeepsAliveAssignments(t *testing.T) {
	w, co, p := rig(t, Config{})
	p.env.Send("co", submit(1))
	w.RunFor(time.Second)
	p.env.Send("co", &proto.Heartbeat{From: "peer", Role: proto.RoleServer, Capacity: 1, WantWork: true})
	w.RunFor(time.Second)
	task := proto.TaskID{Call: call(1), Instance: 1}
	// Failover-style sync: the task is still running on the server.
	p.env.Send("co", &proto.ServerSync{From: "peer", Running: []proto.TaskID{task}})
	w.RunFor(time.Second)
	if st := co.StatsNow(); st.Ongoing != 1 || st.Rescheduled != 0 {
		t.Fatalf("live assignment disturbed: %+v", st)
	}
}

func TestServerSyncReplyClassifiesResults(t *testing.T) {
	w, co, p := rig(t, Config{})
	p.env.Send("co", submit(1))
	p.env.Send("co", submit(2))
	w.RunFor(time.Second)
	// Call 2 already finished via another path.
	p.env.Send("co", &proto.TaskResult{From: "other", Task: proto.TaskID{Call: call(2), Instance: 1}})
	w.RunFor(time.Second)
	p.env.Send("co", &proto.ServerSync{From: "peer", Tasks: []proto.TaskID{
		{Call: call(1), Instance: 1},
		{Call: call(2), Instance: 1},
	}})
	w.RunFor(time.Second)
	// Not the last message any more: the sync ran nothing, so pending
	// call 1 is pushed to the peer behind the reply.
	var reply *proto.ServerSyncReply
	for _, m := range p.inbox {
		if r, ok := m.(*proto.ServerSyncReply); ok {
			reply = r
		}
	}
	if reply == nil {
		t.Fatalf("no ServerSyncReply among %d messages, last = %T", len(p.inbox), p.last())
	}
	if len(reply.Resend) != 1 || reply.Resend[0].Call != call(1) {
		t.Fatalf("resend = %v", reply.Resend)
	}
	if len(reply.Drop) != 1 || reply.Drop[0].Call != call(2) {
		t.Fatalf("drop = %v", reply.Drop)
	}
	_ = co
}

func TestSyncRequestReplies(t *testing.T) {
	w, _, p := rig(t, Config{})
	p.env.Send("co", submit(1))
	p.env.Send("co", submit(3))
	w.RunFor(time.Second)
	// The reply always carries the exact known list, so the client can
	// detect holes below its maximum timestamp (lost submissions).
	p.env.Send("co", &proto.SyncRequest{User: "u", Session: 1, MaxSeq: 3, HaveLog: true})
	w.RunFor(time.Second)
	rep := p.last().(*proto.SyncReply)
	if rep.MaxSeq != 3 || len(rep.Known) != 2 {
		t.Fatalf("have-log reply = %+v", rep)
	}
	if rep.Known[0] != 1 || rep.Known[1] != 3 {
		t.Fatalf("known = %v, want [1 3]", rep.Known)
	}
	// Without a log: same list, which the client adopts.
	p.env.Send("co", &proto.SyncRequest{User: "u", Session: 1, HaveLog: false})
	w.RunFor(time.Second)
	rep = p.last().(*proto.SyncReply)
	if len(rep.Known) != 2 {
		t.Fatalf("lost-log reply known = %v", rep.Known)
	}
}

func TestRestartReloadsJobsFromDisk(t *testing.T) {
	w, co, p := rig(t, Config{})
	p.env.Send("co", submit(1))
	p.env.Send("co", submit(2))
	w.RunFor(time.Second)
	p.env.Send("co", &proto.TaskResult{From: "x", Task: proto.TaskID{Call: call(1), Instance: 1},
		Output: []byte("done")})
	w.RunFor(time.Second)

	w.Restart("co")
	w.RunFor(time.Second)
	st := co.StatsNow()
	if st.JobsAccepted != 2 {
		t.Fatalf("restart lost jobs: %+v", st)
	}
	rec, ok := co.DB().Peek(call(1))
	if !ok || rec.State != proto.TaskFinished || string(rec.Output) != "done" {
		t.Fatal("finished result lost across restart")
	}
	rec2, _ := co.DB().Peek(call(2))
	if rec2.State != proto.TaskPending {
		t.Fatalf("unfinished job state = %v, want pending after restart", rec2.State)
	}
}

func TestReplicationRoundTrip(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 5})
	cfg := Config{
		Coordinators: []proto.NodeID{"c1", "c2"},
		DBCost:       db.CostModel{PerOp: time.Microsecond},
	}
	c1, c2 := New(cfg), New(cfg)
	p := &peer{}
	w.AddNode("c1", c1)
	w.AddNode("c2", c2)
	w.AddNode("peer", p)
	w.Start("c1")
	w.Start("c2")
	w.Start("peer")

	p.env.Send("c1", submit(1))
	w.RunFor(time.Second)
	p.env.Send("c1", &proto.TaskResult{From: "peer", Task: proto.TaskID{Call: call(1), Instance: 1},
		Output: []byte("r")})
	w.RunFor(time.Second)

	w.Schedule(0, c1.ReplicateNow)
	w.RunFor(time.Second)

	if c2.FinishedCount() != 1 {
		t.Fatalf("replica finished = %d, want 1", c2.FinishedCount())
	}
	if c1.LastReplicationDuration() <= 0 {
		t.Fatal("replication duration not measured")
	}
	// The replica can now serve the result to a polling client.
	p.env.Send("c2", &proto.Poll{User: "u", Session: 1})
	w.RunFor(time.Second)
	res, ok := p.last().(*proto.Results)
	if !ok || len(res.Results) != 1 {
		t.Fatalf("replica poll = %+v", p.last())
	}
}

// A replica's record is its own, but its payloads are the primary's:
// stored payload bytes are never modified, so replication copies a
// record's fields and shares its params and output. (The simulator hands
// a message over by pointer, so the sharing is visible here.)
func TestReplicaSharesThePrimarysPayloads(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 5})
	cfg := Config{Coordinators: []proto.NodeID{"c1", "c2"}}
	c1, c2 := New(cfg), New(cfg)
	p := &peer{}
	w.AddNode("c1", c1)
	w.AddNode("c2", c2)
	w.AddNode("peer", p)
	w.Start("c1")
	w.Start("c2")
	w.Start("peer")

	sub := submit(1)
	sub.Params = make([]byte, 1<<10)
	p.env.Send("c1", sub)
	w.RunFor(time.Second)
	p.env.Send("c1", &proto.TaskResult{From: "peer", Task: proto.TaskID{Call: call(1), Instance: 1},
		Output: []byte("r")})
	w.RunFor(time.Second)
	w.Schedule(0, c1.ReplicateNow)
	w.RunFor(time.Second)

	primary, _ := c1.DB().Peek(call(1))
	replica, ok := c2.DB().Peek(call(1))
	if !ok || replica.State != proto.TaskFinished {
		t.Fatalf("the replica holds %s, want the finished call", brief(replica))
	}
	if replica == primary {
		t.Fatal("the replica stored the primary's record itself")
	}
	if &replica.Params[0] != &primary.Params[0] || &replica.Output[0] != &primary.Output[0] {
		t.Fatal("the replica's payloads are copies of the primary's")
	}
}

func TestReplicaHoldsPredecessorOngoingUntilSuspicion(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 6})
	cfg := Config{
		Coordinators:     []proto.NodeID{"c1", "c2"},
		DBCost:           db.CostModel{PerOp: time.Microsecond},
		HeartbeatTimeout: 15 * time.Second,
		HeartbeatPeriod:  5 * time.Second,
	}
	c1, c2 := New(cfg), New(cfg)
	p := &peer{}
	w.AddNode("c1", c1)
	w.AddNode("c2", c2)
	w.AddNode("peer", p)
	w.Start("c1")
	w.Start("c2")
	w.Start("peer")

	p.env.Send("c1", submit(1))
	w.RunFor(time.Second)
	p.env.Send("c1", &proto.Heartbeat{From: "peer", Role: proto.RoleServer, Capacity: 1, WantWork: true})
	w.RunFor(time.Second) // now ongoing at c1
	w.Schedule(0, c1.ReplicateNow)
	w.RunFor(time.Second)

	// c2 knows the job as ongoing-at-predecessor: it must not offer it.
	p.env.Send("c2", &proto.Heartbeat{From: "peer2", Role: proto.RoleServer, Capacity: 1, WantWork: true})
	w.RunFor(time.Second)
	if ack, ok := p.last().(*proto.HeartbeatAck); ok && len(ack.Tasks) != 0 {
		t.Fatalf("replica scheduled predecessor's ongoing task: %v", ack.Tasks)
	}

	// Kill c1; after suspicion, c2 releases the task.
	w.Crash("c1")
	w.RunFor(time.Minute)
	p.env.Send("c2", &proto.Heartbeat{From: "peer2", Role: proto.RoleServer, Capacity: 1, WantWork: true})
	w.RunFor(time.Second)
	ack, ok := p.last().(*proto.HeartbeatAck)
	if !ok || len(ack.Tasks) != 1 {
		t.Fatalf("released task not scheduled after predecessor suspicion: %+v", p.last())
	}
}

func TestRingHeartbeatsKeepTrust(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 7})
	cfg := Config{
		Coordinators:      []proto.NodeID{"c1", "c2"},
		DBCost:            db.CostModel{PerOp: time.Microsecond},
		HeartbeatTimeout:  30 * time.Second,
		HeartbeatPeriod:   5 * time.Second,
		ReplicationPeriod: 2 * time.Minute, // longer than the timeout
	}
	c1, c2 := New(cfg), New(cfg)
	w.AddNode("c1", c1)
	w.AddNode("c2", c2)
	w.Start("c1")
	w.Start("c2")
	w.RunFor(10 * time.Minute)
	// With ring heartbeats, neither suspects the other despite the long
	// replication period, so the ring successor stays stable.
	if c1.Successor() != "c2" || c2.Successor() != "c1" {
		t.Fatalf("ring broken: succ(c1)=%s succ(c2)=%s", c1.Successor(), c2.Successor())
	}
	if c1.StatsNow().ReplRounds < 4 {
		t.Fatalf("replication rounds = %d, want >= 4", c1.StatsNow().ReplRounds)
	}
}

func TestStaleEpochAckIgnored(t *testing.T) {
	w, co, p := rig(t, Config{Coordinators: []proto.NodeID{"co", "peer"}})
	p.env.Send("co", submit(1))
	w.RunFor(time.Second)
	w.Schedule(0, co.ReplicateNow)
	w.RunFor(time.Millisecond)
	if !co.ReplicationInFlight() {
		t.Fatal("no round in flight")
	}
	// A stale ack (wrong epoch) must not complete the round.
	p.env.Send("co", &proto.ReplicaAck{From: "peer", Epoch: 9999})
	w.RunFor(100 * time.Millisecond)
	if !co.ReplicationInFlight() {
		t.Fatal("stale ack completed the round")
	}
}

// roundRig drives one of a coordinator's two outgoing rounds by hand:
// "ring" replicates to its ring successor pa; "shard" syncs to the
// successor shard's ring {pa, pb}.
type roundRig struct {
	t      *testing.T
	stream string
	w      *sim.World
	co     *Coordinator
	ids    []proto.NodeID // the peers, in order
	peers  map[proto.NodeID]*peer
	sv, cl *peer
	seq    int
}

// request is a round's request as its target received it.
type request struct {
	to           proto.NodeID
	epoch, round uint64
	jobs         int
}

func newRoundRig(t *testing.T, stream string, timeout time.Duration) *roundRig {
	m := shard.New(1, [][]proto.NodeID{{"co"}, {"pa", "pb"}}, 0)
	cfg := Config{
		Coordinators:     []proto.NodeID{"co"},
		DBCost:           db.CostModel{PerOp: time.Microsecond},
		HeartbeatTimeout: timeout,
		HeartbeatPeriod:  time.Second,
		PullOnly:         true,
	}
	r := &roundRig{t: t, stream: stream, w: sim.NewWorld(sim.Config{Seed: 3}), sv: &peer{}, cl: &peer{},
		ids: m.Ring(1), peers: map[proto.NodeID]*peer{}}
	if stream == "ring" {
		cfg.Coordinators = []proto.NodeID{"co", "pa"}
		r.ids = []proto.NodeID{"pa"}
	} else {
		cfg.Shard = m
	}
	r.co = New(cfg)
	r.w.AddNode("co", r.co)
	r.w.AddNode("sv", r.sv)
	r.w.AddNode("cl", r.cl)
	for _, id := range r.ids {
		r.peers[id] = &peer{}
		r.w.AddNode(id, r.peers[id])
	}
	for _, id := range append([]proto.NodeID{"co", "sv", "cl"}, r.ids...) {
		r.w.Start(id)
	}
	return r
}

// start begins a round, which carries one new call.
func (r *roundRig) start() {
	r.seq++
	r.cl.env.Send("co", submit(r.seq))
	r.w.RunFor(time.Millisecond)
	if r.stream == "ring" {
		r.w.Schedule(0, r.co.ReplicateNow)
	} else {
		r.w.Schedule(0, r.co.ShardSyncNow)
	}
	r.w.RunFor(time.Millisecond)
}

// request returns the round's request the peers received since the
// last call, and clears their inboxes.
func (r *roundRig) request() request {
	r.t.Helper()
	var got []request
	for _, id := range r.ids {
		p := r.peers[id]
		for _, msg := range p.inbox {
			switch m := msg.(type) {
			case *proto.ReplicaUpdate:
				got = append(got, request{id, m.Epoch, m.Round, len(m.Jobs)})
			case *proto.ShardSync:
				got = append(got, request{id, m.Epoch, m.Round, len(m.Jobs)})
			}
		}
		p.inbox = nil
	}
	if len(got) != 1 {
		r.t.Fatalf("%s: the peers received %d requests, want 1: %+v", r.stream, len(got), got)
	}
	return got[0]
}

// answer has the target answer req.
func (r *roundRig) answer(req request) {
	var msg proto.Message = &proto.ReplicaAck{From: req.to, Epoch: req.epoch, Round: req.round}
	if r.stream == "shard" {
		msg = &proto.ShardSyncAck{From: req.to, Shard: 1, Epoch: req.epoch, Round: req.round}
	}
	r.peers[req.to].env.Send("co", msg)
	r.w.RunFor(time.Millisecond)
}

// answered counts the rounds whose answer the coordinator took.
func (r *roundRig) answered() int {
	st := r.co.StatsNow()
	if r.stream == "ring" {
		return int(st.ReplRounds)
	}
	return int(st.ShardSyncRounds)
}

// wait lets d pass with every peer and the server beating, so that
// nothing is suspected and no shard adopted.
func (r *roundRig) wait(d time.Duration) {
	for ; d > 0; d -= time.Second {
		for _, id := range r.ids {
			r.peers[id].env.Send("co", &proto.Heartbeat{From: id, Role: proto.RoleCoordinator})
		}
		r.sv.env.Send("co", &proto.Heartbeat{From: "sv", Role: proto.RoleServer})
		r.w.RunFor(min(d, time.Second))
	}
}

// TestGiveUpTimerAbandonsOnlyItsOwnRound: with rounds more frequent
// than the suspicion timeout, round 1's give-up timer falls due while
// round 2 awaits its answer. It must leave round 2 alone: abandoning it
// makes the coordinator ignore round 2's answer (and a record stream
// send its records again). A round that is given up moves the stream
// on: ring replication stays on its successor, shard sync goes to the
// next member of the successor shard's ring.
func TestGiveUpTimerAbandonsOnlyItsOwnRound(t *testing.T) {
	const timeout = 10 * time.Second
	for _, tc := range []struct {
		stream  string
		rotates bool
	}{{"ring", false}, {"shard", true}} {
		t.Run(tc.stream, func(t *testing.T) {
			r := newRoundRig(t, tc.stream, timeout)
			r.start() // round 1: gives up at its start + timeout
			r.answer(r.request())
			r.wait(timeout - 2*time.Second)
			r.start() // round 2, a second or two before round 1's deadline
			second := r.request()
			r.wait(3 * time.Second)
			r.answer(second)
			if n := r.answered(); n != 2 {
				t.Fatalf("answered rounds = %d, want 2: round 1's give-up timer abandoned round 2", n)
			}

			r.start() // round 3: never answered
			third := r.request()
			if third.jobs != 1 {
				t.Fatalf("round 3 carries %d jobs, want its own 1: round 2's were sent again", third.jobs)
			}
			r.wait(timeout + time.Second)
			r.start() // round 4, after round 3 was given up
			fourth := r.request()
			want := third.to
			if tc.rotates {
				want = map[proto.NodeID]proto.NodeID{"pa": "pb", "pb": "pa"}[third.to]
			}
			if fourth.to != want || fourth.round != third.round+1 {
				t.Fatalf("round %d went to %s after round %d to %s was given up, want round %d to %s",
					fourth.round, fourth.to, third.round, third.to, third.round+1, want)
			}
		})
	}
}

func TestMidRoundStateChangeStaysDirty(t *testing.T) {
	// A record finishing while its previous state is in a replication
	// round must survive the round's ack in the dirty set; otherwise
	// the finished state would never reach the backup (lost update).
	w := sim.NewWorld(sim.Config{Seed: 8})
	cfg := Config{
		Coordinators: []proto.NodeID{"c1", "c2"},
		// A slow DB stretches the round so the result arrives mid-round.
		DBCost: db.CostModel{PerOp: 200 * time.Millisecond},
	}
	c1, c2 := New(cfg), New(cfg)
	p := &peer{}
	w.AddNode("c1", c1)
	w.AddNode("c2", c2)
	w.AddNode("peer", p)
	w.Start("c1")
	w.Start("c2")
	w.Start("peer")

	p.env.Send("c1", submit(1))
	w.RunFor(time.Second)
	// Start a round carrying the record as pending, then land its
	// result while the round is still in flight (backup DB is slow).
	w.Schedule(0, c1.ReplicateNow)
	w.Schedule(50*time.Millisecond, func() {
		c1.Receive("peer", &proto.TaskResult{
			From:   "peer",
			Task:   proto.TaskID{Call: call(1), Instance: 1},
			Output: []byte("late"),
		})
	})
	w.RunFor(5 * time.Second) // round completes, ack processed
	// The next round must carry the finished state to the backup.
	w.Schedule(0, c1.ReplicateNow)
	w.RunFor(5 * time.Second)
	if c2.FinishedCount() != 1 {
		t.Fatalf("backup finished = %d; the mid-round finish was lost", c2.FinishedCount())
	}
}

// BenchmarkStatsNow reads the counters over a job table the size the
// benchmark's heavy workload ends with. Every status scrape pays this
// on the event loop, and so does each simulated event of a figure whose
// stop condition reads the stats. Run with -benchmem.
func BenchmarkStatsNow(b *testing.B) {
	w := sim.NewWorld(sim.Config{Seed: 3})
	co := New(Config{Coordinators: []proto.NodeID{"co"}})
	w.AddNode("co", co)
	w.Start("co")
	const jobs = 26_000
	for i := 1; i <= jobs; i++ {
		co.DB().Put(&proto.JobRecord{Call: call(i), State: proto.TaskState(i % 3)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := co.StatsNow(); st.Pending != jobs/3 {
			b.Fatalf("%d of %d jobs pending, want a third", st.Pending, jobs)
		}
	}
}
