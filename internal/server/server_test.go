package server

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/node/nodetest"
	"rpcv/internal/proto"
	"rpcv/internal/sim"
)

// fakeCoord is a scripted coordinator stand-in that records traffic and
// can grant tasks on heartbeats.
type fakeCoord struct {
	env     node.Env
	grant   []proto.TaskAssignment // handed out on the next WantWork beat
	results []*proto.TaskResult
	syncs   []*proto.ServerSync
	ackAll  bool
	coords  []proto.NodeID
	silent  bool // stop answering (simulated silence without crash)
}

func (f *fakeCoord) Start(env node.Env) { f.env = env }
func (f *fakeCoord) Stop()              {}
func (f *fakeCoord) Receive(from proto.NodeID, msg proto.Message) {
	if f.silent {
		return
	}
	switch m := msg.(type) {
	case *proto.Heartbeat:
		ack := &proto.HeartbeatAck{From: f.env.Self(), Coordinators: f.coords}
		if m.WantWork && len(f.grant) > 0 {
			n := m.Capacity
			if n > len(f.grant) {
				n = len(f.grant)
			}
			ack.Tasks = f.grant[:n]
			f.grant = f.grant[n:]
		}
		f.env.Send(from, ack)
	case *proto.TaskResult:
		f.results = append(f.results, m)
		if f.ackAll {
			f.env.Send(from, &proto.TaskResultAck{Task: m.Task})
		}
	case *proto.ServerSync:
		f.syncs = append(f.syncs, m)
		f.env.Send(from, &proto.ServerSyncReply{})
	}
}

func task(seq, inst int) proto.TaskAssignment {
	return proto.TaskAssignment{
		Task: proto.TaskID{
			Call:     proto.CallID{User: "u", Session: 1, Seq: proto.RPCSeq(seq)},
			Instance: uint32(inst),
		},
		Service:    "synthetic",
		ExecTime:   10 * time.Second,
		ResultSize: 8,
	}
}

func rig(t *testing.T, cfg Config) (*sim.World, *Server, *fakeCoord) {
	t.Helper()
	if len(cfg.Coordinators) == 0 {
		cfg.Coordinators = []proto.NodeID{"co"}
	}
	w := sim.NewWorld(sim.Config{Seed: 11})
	sv := New(cfg)
	fc := &fakeCoord{ackAll: true}
	w.AddNode("co", fc)
	w.AddNode("sv", sv)
	w.Start("co")
	w.Start("sv")
	return w, sv, fc
}

func TestPullExecuteUpload(t *testing.T) {
	w, sv, fc := rig(t, Config{})
	fc.grant = []proto.TaskAssignment{task(1, 1)}
	w.RunFor(time.Minute)
	if len(fc.results) == 0 {
		t.Fatal("no result uploaded")
	}
	res := fc.results[0]
	if res.Task.Call.Seq != 1 || len(res.Output) != 8 || res.Err != "" {
		t.Fatalf("result = %+v", res)
	}
	st := sv.StatsNow()
	if st.Executed != 1 || st.Unacked != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRegisteredServiceRuns(t *testing.T) {
	w, _, fc := rig(t, Config{
		Services: map[string]Service{
			"double": func(params []byte) ([]byte, error) {
				out := make([]byte, len(params))
				for i, b := range params {
					out[i] = b * 2
				}
				return out, nil
			},
		},
	})
	ta := task(1, 1)
	ta.Service = "double"
	ta.ExecTime = time.Second
	ta.Params = []byte{1, 2, 3}
	fc.grant = []proto.TaskAssignment{ta}
	w.RunFor(time.Minute)
	if len(fc.results) == 0 {
		t.Fatal("no result")
	}
	out := fc.results[0].Output
	if len(out) != 3 || out[0] != 2 || out[2] != 6 {
		t.Fatalf("service output = %v", out)
	}
}

func TestServiceErrorPropagates(t *testing.T) {
	w, _, fc := rig(t, Config{
		Services: map[string]Service{
			"boom": func([]byte) ([]byte, error) { return nil, errors.New("exploded") },
		},
	})
	ta := task(1, 1)
	ta.Service = "boom"
	ta.ExecTime = time.Second
	fc.grant = []proto.TaskAssignment{ta}
	w.RunFor(time.Minute)
	if len(fc.results) == 0 || fc.results[0].Err != "exploded" {
		t.Fatalf("error not propagated: %+v", fc.results)
	}
}

func TestUnknownServiceFails(t *testing.T) {
	w, _, fc := rig(t, Config{})
	ta := task(1, 1)
	ta.Service = "nope"
	ta.ExecTime = 0
	ta.ResultSize = 0
	fc.grant = []proto.TaskAssignment{ta}
	w.RunFor(time.Minute)
	if len(fc.results) == 0 || fc.results[0].Err == "" {
		t.Fatal("unknown service did not error")
	}
}

func TestResultRetriedUntilAcked(t *testing.T) {
	w, sv, fc := rig(t, Config{HeartbeatPeriod: 5 * time.Second})
	fc.ackAll = false
	fc.grant = []proto.TaskAssignment{task(1, 1)}
	w.RunFor(3 * time.Minute)
	if len(fc.results) < 2 {
		t.Fatalf("result sent %d times without ack, want retries", len(fc.results))
	}
	if sv.StatsNow().Unacked != 1 {
		t.Fatal("result not held as unacked")
	}
	// Ack arrives on the next (backed-off) retry: the log entry is
	// garbage collected. The retry cap is five minutes.
	fc.ackAll = true
	w.RunFor(6 * time.Minute)
	if sv.StatsNow().Unacked != 0 {
		t.Fatal("ack did not clear the unacked result")
	}
	if n := len(w.Disk("sv").Keys("server/result/")); n != 0 {
		t.Fatalf("result log not garbage collected: %d entries", n)
	}
}

func TestRestartRecoversUnackedResults(t *testing.T) {
	w, sv, fc := rig(t, Config{})
	fc.ackAll = false
	fc.grant = []proto.TaskAssignment{task(1, 1)}
	w.RunFor(time.Minute)
	if sv.StatsNow().Unacked != 1 {
		t.Fatal("setup: no unacked result")
	}
	before := len(fc.results)
	w.Restart("sv")
	fc.ackAll = true
	w.RunFor(time.Minute)
	if len(fc.results) <= before {
		t.Fatal("restarted server never re-offered its logged result")
	}
	if sv.StatsNow().Unacked != 0 {
		t.Fatal("re-offered result never acked")
	}
}

func TestSyncOnRestartReportsNothingRunning(t *testing.T) {
	w, _, fc := rig(t, Config{})
	fc.grant = []proto.TaskAssignment{task(1, 1)}
	w.RunFor(7 * time.Second) // task assigned, still executing
	w.Restart("sv")
	w.RunFor(time.Minute)
	if len(fc.syncs) < 2 {
		t.Fatalf("expected syncs on boot and restart, got %d", len(fc.syncs))
	}
	last := fc.syncs[len(fc.syncs)-1]
	if len(last.Running) != 0 {
		t.Fatalf("restarted server claims running tasks: %v", last.Running)
	}
}

func TestDedupSameCall(t *testing.T) {
	w, sv, fc := rig(t, Config{Parallelism: 2})
	fc.ackAll = false // keep the first result in the unacked log
	fc.grant = []proto.TaskAssignment{task(1, 1)}
	w.RunFor(time.Minute) // executed once, unacked
	// A new instance of the same call arrives (coordinator rescheduled
	// it after a wrong suspicion): the server must not recompute.
	fc.grant = []proto.TaskAssignment{task(1, 2)}
	w.RunFor(time.Minute)
	if sv.StatsNow().Executed != 1 {
		t.Fatalf("executed %d times, want 1 (dedup)", sv.StatsNow().Executed)
	}
	if sv.StatsNow().Dedup == 0 {
		t.Fatal("dedup not counted")
	}
}

// A coordinator that crashed before an assignment's header was durable
// hands the call out again, at the same instance or a later one, while
// the first copy still runs here: both copies are duplicates, and the
// call runs once.
func TestReissuedAssignmentWhileRunningExecutesOnce(t *testing.T) {
	w, sv, fc := rig(t, Config{Parallelism: 2, HeartbeatPeriod: time.Second})
	fc.grant = []proto.TaskAssignment{task(1, 1)}
	w.RunFor(3 * time.Second) // running: ten seconds of execution
	if st := sv.StatsNow(); st.Running != 1 {
		t.Fatalf("running %d, want the first copy", st.Running)
	}
	fc.grant = []proto.TaskAssignment{task(1, 1), task(1, 2)} // one a pull, as one slot is free
	w.RunFor(4 * time.Second)
	if st := sv.StatsNow(); len(fc.grant) != 0 || st.Dedup != 2 || st.Executed != 0 {
		t.Fatalf("after the re-grants: %d left to grant, dedup %d, executed %d; want 0, 2 and 0", len(fc.grant), st.Dedup, st.Executed)
	}
	w.RunFor(time.Minute)
	if st := sv.StatsNow(); st.Executed != 1 || st.Dedup != 2 {
		t.Fatalf("executed %d, dedup %d; want 1 and 2", st.Executed, st.Dedup)
	}
}

func TestBacklogQueuesOverAssignment(t *testing.T) {
	w, sv, fc := rig(t, Config{Parallelism: 1})
	fc.grant = []proto.TaskAssignment{task(1, 1), task(2, 1), task(3, 1)}
	w.RunFor(8 * time.Second)
	st := sv.StatsNow()
	if st.Running != 1 {
		t.Fatalf("running = %d, want 1", st.Running)
	}
	// Eventually everything executes, one at a time.
	w.RunFor(2 * time.Minute)
	if sv.StatsNow().Executed != 3 {
		t.Fatalf("executed = %d, want 3", sv.StatsNow().Executed)
	}
}

func TestFailoverToSecondCoordinator(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 13})
	sv := New(Config{
		Coordinators:     []proto.NodeID{"co1", "co2"},
		SuspicionTimeout: 20 * time.Second,
	})
	c1 := &fakeCoord{ackAll: true, coords: []proto.NodeID{"co1", "co2"}}
	c2 := &fakeCoord{ackAll: true, coords: []proto.NodeID{"co1", "co2"}}
	w.AddNode("co1", c1)
	w.AddNode("co2", c2)
	w.AddNode("sv", sv)
	w.Start("co1")
	w.Start("co2")
	w.Start("sv")
	w.RunFor(10 * time.Second)
	if sv.Preferred() != "co1" {
		t.Fatalf("preferred = %s, want co1", sv.Preferred())
	}
	c1.silent = true
	w.RunFor(time.Minute)
	if sv.Preferred() != "co2" {
		t.Fatalf("preferred after silence = %s, want co2", sv.Preferred())
	}
	if sv.StatsNow().Failovers == 0 {
		t.Fatal("failover not counted")
	}
	// The sync with the new coordinator happened.
	if len(c2.syncs) == 0 {
		t.Fatal("no sync with the new coordinator")
	}
}

func TestCoordinatorListMerge(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 17})
	sv := New(Config{Coordinators: []proto.NodeID{"co1"}})
	c1 := &fakeCoord{ackAll: true, coords: []proto.NodeID{"co1", "co9"}}
	w.AddNode("co1", c1)
	w.AddNode("sv", sv)
	w.Start("co1")
	w.Start("sv")
	w.RunFor(time.Minute)
	found := false
	for _, id := range sv.Coordinators() {
		if id == "co9" {
			found = true
		}
	}
	if !found {
		t.Fatal("coordinator list merge did not propagate co9")
	}
}

// ---------------------------------------------------------------------
// Task cancellation (withdrawal of a requeue race's loser)
// ---------------------------------------------------------------------

func TestCancelDiscardsRunningExecution(t *testing.T) {
	w, sv, fc := rig(t, Config{})
	fc.grant = []proto.TaskAssignment{task(1, 1)} // 10 s synthetic task
	w.RunFor(7 * time.Second)                     // assigned, mid-execution
	if sv.StatsNow().Running != 1 {
		t.Fatalf("running = %d, want 1", sv.StatsNow().Running)
	}
	w.Schedule(0, func() { sv.Receive("co", &proto.TaskCancel{Task: task(1, 1).Task}) })
	w.RunFor(time.Minute)
	st := sv.StatsNow()
	if st.Executed != 0 || st.Uploaded != 0 || len(fc.results) != 0 {
		t.Fatalf("cancelled execution still produced output: %+v", st)
	}
	if st.Discarded != 1 {
		t.Fatalf("discarded = %d, want 1", st.Discarded)
	}
	// Idempotent: cancelling again (or for an unknown task) is a no-op.
	w.Schedule(0, func() {
		sv.Receive("co", &proto.TaskCancel{Task: task(1, 1).Task})
		sv.Receive("co", &proto.TaskCancel{Task: task(9, 1).Task})
	})
	w.RunFor(time.Second)
	if sv.StatsNow().Discarded != 1 {
		t.Fatalf("cancel not idempotent: discarded = %d", sv.StatsNow().Discarded)
	}
}

func TestCancelDropsBacklogEntry(t *testing.T) {
	w, sv, _ := rig(t, Config{Parallelism: 1})
	// Over-assign in one ack (two heartbeat replies racing would do the
	// same): the second task lands in the backlog.
	w.Schedule(0, func() {
		sv.Receive("co", &proto.HeartbeatAck{From: "co",
			Tasks: []proto.TaskAssignment{task(1, 1), task(2, 1)}})
	})
	w.RunFor(3 * time.Second) // 1 running, 1 backlogged
	if sv.StatsNow().Backlog != 1 {
		t.Fatalf("backlog = %d, want 1", sv.StatsNow().Backlog)
	}
	w.Schedule(0, func() { sv.Receive("co", &proto.TaskCancel{Task: task(2, 1).Task}) })
	w.RunFor(2 * time.Minute)
	st := sv.StatsNow()
	if st.Executed != 1 {
		t.Fatalf("executed = %d, want 1 (backlogged task cancelled)", st.Executed)
	}
	if st.Discarded != 1 {
		t.Fatalf("discarded = %d, want 1", st.Discarded)
	}
}

func TestCancelGarbageCollectsUnackedResult(t *testing.T) {
	w, sv, fc := rig(t, Config{})
	fc.ackAll = false
	fc.grant = []proto.TaskAssignment{task(1, 1)}
	w.RunFor(time.Minute) // executed, result parked in the unacked log
	if sv.StatsNow().Unacked != 1 {
		t.Fatalf("unacked = %d, want 1", sv.StatsNow().Unacked)
	}
	w.Schedule(0, func() { sv.Receive("co", &proto.TaskCancel{Task: task(1, 1).Task}) })
	w.RunFor(time.Second)
	if sv.StatsNow().Unacked != 0 {
		t.Fatal("cancel did not drop the unacked result")
	}
	if w.Disk("sv").Len() != 0 {
		t.Fatal("cancel did not garbage-collect the result log entry")
	}
}

func crashServer() *Server {
	return New(Config{Coordinators: []proto.NodeID{"co"}, Parallelism: 3, HeartbeatPeriod: time.Second})
}

func crashTask(seq, resultSize int) proto.TaskAssignment {
	a := task(seq, 1)
	a.ExecTime, a.ResultSize = time.Second, resultSize
	return a
}

// serverCrashRun is one incarnation of the oracle's server: results of
// every size class logged and uploaded, one acknowledged, one cancelled
// (each drops a log entry), then another large one.
type serverCrashRun struct {
	produced map[proto.TaskID]*proto.TaskResult
	uploaded map[proto.TaskID]bool // the upload left before the cut
	dropped  map[proto.TaskID]bool // acknowledged or cancelled, cut or no cut
}

func runServerCrashScenario(d *nodetest.CrashDisk) serverCrashRun {
	r := serverCrashRun{produced: map[proto.TaskID]*proto.TaskResult{}, uploaded: map[proto.TaskID]bool{}, dropped: map[proto.TaskID]bool{}}
	env := nodetest.NewEnv("sv", d.Disk)
	s := crashServer()
	s.Start(env)
	execute := func(tasks ...proto.TaskAssignment) {
		s.Receive("co", &proto.HeartbeatAck{From: "co", Tasks: tasks})
		for range tasks {
			env.Advance(time.Second) // one completion at a time
			for _, m := range env.Take() {
				if res, ok := m.(*proto.TaskResult); ok && r.produced[res.Task] == nil {
					r.produced[res.Task], r.uploaded[res.Task] = res, !d.Cut.Off
				}
			}
		}
	}
	stagger := func(a proto.TaskAssignment, by time.Duration) proto.TaskAssignment { a.ExecTime += by; return a }
	execute(crashTask(1, 8), stagger(crashTask(2, 64<<10), time.Millisecond), stagger(crashTask(3, proto.BlobMin), 2*time.Millisecond))
	r.dropped[task(2, 1).Task] = true
	s.Receive("co", &proto.TaskResultAck{Task: task(2, 1).Task})
	r.dropped[task(3, 1).Task] = true
	s.Receive("co", &proto.TaskCancel{Task: task(3, 1).Task})
	execute(crashTask(4, 64<<10))
	r.dropped[task(1, 1).Task] = true
	s.Receive("co", &proto.TaskResultAck{Task: task(1, 1).Task})
	s.Stop()
	return r
}

// checkServerRecovered restarts a server over what the crash left and
// holds it to the oracle: its synchronization offers every result it
// recovered and resends each exactly as it was logged; what it lost is
// absent altogether, for
// the coordinator to have executed again; no output is left without a
// header; and — durable — a result whose upload left before the cut
// and that nobody acknowledged is among the recovered.
func checkServerRecovered(t *testing.T, at string, disk node.Disk, r serverCrashRun, durable bool) {
	t.Helper()
	env := nodetest.NewEnv("sv", disk)
	s := crashServer()
	s.Start(env)
	unacked := s.StatsNow().Unacked
	env.Advance(time.Second)
	var offered []proto.TaskID
	for _, m := range env.Take() {
		if sync, ok := m.(*proto.ServerSync); ok {
			offered = sync.Tasks
		}
	}
	if len(offered) != unacked {
		t.Fatalf("%s: recovered %d results, the sync offers %v", at, unacked, offered)
	}
	s.Receive("co", &proto.ServerSyncReply{Resend: offered})
	recovered := map[proto.TaskID]bool{}
	for _, m := range env.Take() {
		if res, ok := m.(*proto.TaskResult); ok {
			if recovered[res.Task] || !reflect.DeepEqual(res, r.produced[res.Task]) {
				t.Fatalf("%s: result %s resent twice, or with other bytes than were logged", at, res.Task)
			}
			recovered[res.Task] = true
		}
	}
	if len(recovered) != len(offered) {
		t.Fatalf("%s: offered %v, resent %d", at, offered, len(recovered))
	}
	for _, k := range disk.Keys("blob/") {
		if _, ok := disk.Read(k[len("blob/"):]); !ok {
			t.Fatalf("%s: output %s survived recovery without a header", at, k)
		}
	}
	for id, before := range r.uploaded {
		if before && durable && !r.dropped[id] && !recovered[id] {
			t.Fatalf("%s: result %s was uploaded before the cut, never acknowledged, and is not recovered", at, id)
		}
	}
	s.Stop()
}

// TestCrashOracle restarts the server at every operation index of the
// scenario (nodetest.EveryCrash).
func TestCrashOracle(t *testing.T) {
	if r := runServerCrashScenario(nodetest.NewCrashDisk(t, "memory")); len(r.produced) != 4 {
		t.Fatalf("uncut run produced %d results of 4", len(r.produced))
	}
	nodetest.EveryCrash(t, runServerCrashScenario,
		func(at string, disk node.Disk, r serverCrashRun, onlyACut bool) {
			checkServerRecovered(t, at, disk, r, onlyACut)
		})
}

// TestResultKeyIsTheFmtForm pins resultKey to the form it had when it
// was built with fmt and strings.ReplaceAll: the form the stored layout
// names result log entries by (TestStoredLayoutIsUnchanged's keys).
func TestResultKeyIsTheFmtForm(t *testing.T) {
	s := New(Config{})
	check := func(user string, session, seq uint64, instance uint32) bool {
		want := resultPrefix + strings.ReplaceAll(fmt.Sprintf("%s/%d/%d#%d", user, session, seq, instance), "/", "_")
		got := s.resultKey(proto.TaskID{Call: proto.CallID{User: proto.UserID(user), Session: proto.SessionID(session), Seq: proto.RPCSeq(seq)}, Instance: instance})
		if got != want {
			t.Errorf("resultKey = %q, want %q", got, want)
		}
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, user := range []string{"", "/", "a/b", "u//v/"} {
		if !check(user, 0, 0, 0) || !check(user, math.MaxUint64, math.MaxUint64, math.MaxUint32) {
			t.Fatalf("user %q", user)
		}
	}
}
