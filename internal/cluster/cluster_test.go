package cluster

import (
	"testing"
	"time"

	"rpcv/internal/msglog"
	"rpcv/internal/proto"
)

func TestEndToEndSingleCall(t *testing.T) {
	cl := New(Config{Seed: 7, Coordinators: 1, Servers: 2, Clients: 1})
	cl.Submit(0, "synthetic", []byte("hello"), 2*time.Second, 128)
	if !cl.RunUntilResults(0, 1, 5*time.Minute) {
		t.Fatalf("call did not complete; client stats %+v, coord stats %+v",
			cl.Client(0).StatsNow(), cl.Coordinator(0).StatsNow())
	}
	res, ok := cl.Client(0).Result(1)
	if !ok {
		t.Fatal("result missing for seq 1")
	}
	if len(res.Output) != 128 {
		t.Fatalf("result payload = %d bytes, want 128", len(res.Output))
	}
	if res.Err != "" {
		t.Fatalf("unexpected service error %q", res.Err)
	}
}

// TestBuilderBringsThePaperCostModel is the line between the two worlds,
// seen from the simulator: coordinator.Config.DBCost has no default, so
// this builder is what puts db.ConfinedCost() under a deployment that
// names no model. One replication round of n small jobs then costs the
// backup n inserts of 3 ms each — figure 5's slope.
func TestBuilderBringsThePaperCostModel(t *testing.T) {
	const n = 50
	cl := New(Config{Seed: 7, Coordinators: 2, Clients: 1, SuspicionTimeout: time.Hour})
	cl.SubmitBatch(0, n, "synthetic", 100, time.Second, 64)
	co := cl.Coordinator(0)
	cl.World.RunFor(time.Minute)
	if got := co.StatsNow().JobsAccepted; got != n {
		t.Fatalf("primary accepted %d of %d jobs", got, n)
	}
	cl.World.Schedule(0, co.ReplicateNow)
	cl.World.RunFor(time.Minute)
	if d := co.LastReplicationDuration(); d < n*3*time.Millisecond {
		t.Fatalf("replicating %d jobs took %v of virtual time, want at least %v", n, d, n*3*time.Millisecond)
	}
}

func TestEndToEndBatchAcrossServers(t *testing.T) {
	cl := New(Config{Seed: 11, Coordinators: 1, Servers: 4, Clients: 1})
	const n = 32
	cl.SubmitBatch(0, n, "synthetic", 256, time.Second, 64)
	if !cl.RunUntilResults(0, n, 30*time.Minute) {
		t.Fatalf("only %d/%d results; coord %+v", cl.Client(0).ResultCount(), n,
			cl.Coordinator(0).StatsNow())
	}
	// Work must be spread: with 4 pulling servers and 32 one-second
	// tasks, no single server can have executed everything.
	execTotal := 0
	busy := 0
	for i := 0; i < 4; i++ {
		st := cl.Server(i).StatsNow()
		execTotal += st.Executed
		if st.Executed > 0 {
			busy++
		}
	}
	if execTotal < n {
		t.Errorf("servers executed %d tasks, want >= %d", execTotal, n)
	}
	if busy < 2 {
		t.Errorf("only %d servers did work, want >= 2", busy)
	}
}

func TestMultipleClients(t *testing.T) {
	cl := New(Config{Seed: 3, Coordinators: 1, Servers: 4, Clients: 3})
	for i := 0; i < 3; i++ {
		cl.SubmitBatch(i, 8, "synthetic", 64, 500*time.Millisecond, 32)
	}
	deadline := cl.World.Now().Add(20 * time.Minute)
	ok := cl.World.RunUntil(func() bool {
		for i := 0; i < 3; i++ {
			if cl.Client(i).ResultCount() < 8 {
				return false
			}
		}
		return true
	}, deadline)
	if !ok {
		for i := 0; i < 3; i++ {
			t.Logf("client %d: %+v", i, cl.Client(i).StatsNow())
		}
		t.Fatal("not all clients completed")
	}
	// Calls are namespaced per user: coordinator must hold 24 jobs.
	st := cl.Coordinator(0).StatsNow()
	if st.JobsAccepted != 24 {
		t.Errorf("coordinator accepted %d jobs, want 24", st.JobsAccepted)
	}
}

func TestServerCrashReschedules(t *testing.T) {
	cl := New(Config{Seed: 5, Coordinators: 1, Servers: 2, Clients: 1})
	const n = 6
	cl.SubmitBatch(0, n, "synthetic", 64, 20*time.Second, 32)
	// Let assignments happen, then kill server 0 mid-execution.
	cl.World.RunFor(12 * time.Second)
	cl.World.Crash(ServerID(0))
	if !cl.RunUntilResults(0, n, 60*time.Minute) {
		t.Fatalf("only %d/%d results after server crash; coord %+v",
			cl.Client(0).ResultCount(), n, cl.Coordinator(0).StatsNow())
	}
	if resc := cl.Coordinator(0).StatsNow().Rescheduled; resc == 0 {
		t.Error("expected the coordinator to reschedule tasks of the crashed server")
	}
}

func TestServerRestartResendsResults(t *testing.T) {
	// Kill the only server right after its task completes locally but
	// (possibly) before upload acks; on restart it must sync and the
	// result must still reach the client (the result archive is the
	// server's pessimistic log).
	cl := New(Config{Seed: 9, Coordinators: 1, Servers: 1, Clients: 1})
	cl.Submit(0, "synthetic", []byte("x"), 8*time.Second, 16)
	// Run until the server has executed (locally) the task.
	deadline := cl.World.Now().Add(10 * time.Minute)
	sv := cl.Server(0)
	if !cl.World.RunUntil(func() bool { return sv.StatsNow().Executed >= 1 }, deadline) {
		t.Fatal("server never executed the task")
	}
	cl.World.Restart(ServerID(0))
	if !cl.RunUntilResults(0, 1, 30*time.Minute) {
		t.Fatalf("result lost across server restart; server %+v coord %+v",
			sv.StatsNow(), cl.Coordinator(0).StatsNow())
	}
}

func TestCoordinatorFailoverViaReplica(t *testing.T) {
	// Two coordinators with replication: kill the primary after results
	// are stored; servers and client must fail over and the client must
	// still retrieve everything (paper figure 10's mechanism).
	cl := New(Config{
		Seed: 13, Coordinators: 2, Servers: 3, Clients: 1,
		ReplicationPeriod: 10 * time.Second,
	})
	const n = 9
	cl.SubmitBatch(0, n, "synthetic", 128, 25*time.Second, 32)
	// Let some tasks finish and at least one replication round pass,
	// then kill the primary while work is still outstanding.
	cl.World.RunFor(40 * time.Second)
	if cl.Client(0).ResultCount() >= n {
		t.Fatal("test premise broken: all results arrived before the crash")
	}
	cl.World.Crash(CoordinatorID(0))
	if !cl.RunUntilResults(0, n, 2*time.Hour) {
		t.Fatalf("only %d/%d results after coordinator crash; client %+v",
			cl.Client(0).ResultCount(), n, cl.Client(0).StatsNow())
	}
	if cl.Client(0).StatsNow().Failovers == 0 {
		t.Error("client never failed over to the replica")
	}
}

func TestClientRestartRecoversFromLog(t *testing.T) {
	cl := New(Config{
		Seed: 17, Coordinators: 1, Servers: 2, Clients: 1,
		Logging: msglog.BlockingPessimistic,
	})
	const n = 5
	cl.SubmitBatch(0, n, "synthetic", 64, 10*time.Second, 32)
	cl.World.RunFor(3 * time.Second) // submissions durably logged
	cl.World.Restart(ClientID(0))
	if !cl.RunUntilResults(0, n, time.Hour) {
		t.Fatalf("only %d/%d results after client restart; stats %+v",
			cl.Client(0).ResultCount(), n, cl.Client(0).StatsNow())
	}
	// The restarted client must resume the sequence counter past the
	// logged calls, not reuse IDs.
	cli := cl.Client(0)
	var gotSeq proto.RPCSeq
	cl.World.Schedule(0, func() {
		gotSeq = cli.Submit("synthetic", nil, time.Second, 8)
	})
	cl.World.RunFor(time.Millisecond)
	if gotSeq != n+1 {
		t.Errorf("post-restart Submit got seq %d, want %d", gotSeq, n+1)
	}
}

func TestProgressUnderChurn(t *testing.T) {
	// Random server churn: as long as a path client->coordinator->some
	// server exists, the application progresses (progress condition).
	cl := New(Config{Seed: 23, Coordinators: 1, Servers: 6, Clients: 1})
	const n = 24
	cl.SubmitBatch(0, n, "synthetic", 64, 4*time.Second, 16)
	stop := false
	var churn func()
	churn = func() {
		if stop {
			return
		}
		i := cl.World.Rand().Intn(6)
		id := ServerID(i)
		if cl.World.IsUp(id) {
			cl.World.Crash(id)
		} else {
			cl.World.Start(id)
		}
		cl.World.Schedule(15*time.Second, churn)
	}
	cl.World.Schedule(10*time.Second, churn)
	ok := cl.RunUntilResults(0, n, 4*time.Hour)
	stop = true
	if !ok {
		t.Fatalf("only %d/%d results under churn", cl.Client(0).ResultCount(), n)
	}
}
