package cluster

import (
	"testing"
	"time"

	"rpcv/internal/proto"
)

// TestSpeculativeBeatsFCFSWithStraggler pits the speculative policy
// against FCFS on a population with one 10x-slow server: duplicating
// the straggler's task onto a fast machine must cut the completion
// time of the batch.
func TestSpeculativeBeatsFCFSWithStraggler(t *testing.T) {
	slowOne := func(i int) float64 {
		if i == 0 {
			return 10
		}
		return 1
	}
	run := func(policy string) time.Duration {
		cl := New(Config{
			Seed:              41,
			Coordinators:      1,
			Servers:           4,
			Clients:           1,
			Policy:            policy,
			ServerSpeed:       slowOne,
			ReplicationPeriod: 10 * time.Second,
		})
		const calls = 24
		start := cl.World.Now()
		cl.SubmitBatch(0, calls, "synthetic", 256, 5*time.Second, 16)
		if !cl.RunUntilResults(0, calls, 30*time.Minute) {
			t.Fatalf("%s: batch never completed", policy)
		}
		return cl.World.Now().Sub(start)
	}
	fcfs := run("fcfs")
	spec := run("speculative")
	if spec >= fcfs {
		t.Fatalf("speculative (%v) not faster than fcfs (%v) with a straggler", spec, fcfs)
	}
}

// TestSpeculativeFailoverSingleStoredResult proves the issue's
// failover requirement: a call whose instances were speculatively
// duplicated across two servers still yields exactly one stored result
// after the coordinator that issued both dies and its replica takes
// over — the CallID dedupe survives replication and failover.
func TestSpeculativeFailoverSingleStoredResult(t *testing.T) {
	cl := New(Config{
		Seed:              17,
		Coordinators:      2,
		Servers:           2,
		Clients:           1,
		Policy:            "speculative",
		ReplicationPeriod: 2 * time.Second,
		ServerSpeed: func(i int) float64 {
			if i == 0 {
				return 10
			}
			return 1
		},
	})
	const calls = 2
	cl.SubmitBatch(0, calls, "synthetic", 256, 5*time.Second, 16)

	// Run until the primary coordinator has issued a speculative
	// duplicate of the straggler's task, then kill it before any
	// duplicate's result can be stored there.
	co0 := cl.Coordinator(0)
	deadline := cl.World.Now().Add(5 * time.Minute)
	if !cl.World.RunUntil(func() bool { return co0.StatsNow().Speculated >= 1 }, deadline) {
		t.Fatalf("no speculation happened: %+v", co0.StatsNow())
	}
	// Let the duplicate assignment reach its server, then kill the
	// coordinator before either instance's result can be stored.
	cl.World.RunFor(time.Second)
	cl.World.Crash(CoordinatorID(0))

	// Both servers eventually push their results to the replica; the
	// client fails over and must still see exactly one result per call.
	if !cl.RunUntilResults(0, calls, 20*time.Minute) {
		t.Fatalf("batch never completed after failover: client results=%d", cl.Client(0).ResultCount())
	}
	cl.World.RunFor(3 * time.Minute) // let the straggler's late upload land

	// Every call is accounted for once on the replica: stored finished,
	// or — its result acknowledged by the client's Poll — collected,
	// at or below the session's watermark.
	co1 := cl.Coordinator(1)
	finished := int(co1.Collected("user-00", 1))
	for _, rec := range co1.DB().PeekAll() {
		if rec.State == proto.TaskFinished && rec.Call.Seq > co1.Collected("user-00", 1) {
			finished++
		}
	}
	if finished != calls || co1.DB().Len() > calls {
		t.Fatalf("replica accounts for %d finished calls in %d records, want %d",
			finished, co1.DB().Len(), calls)
	}
	if got := cl.Client(0).ResultCount(); got != calls {
		t.Fatalf("client holds %d results, want %d", got, calls)
	}
	// The duplicate instance really executed (calls + 1 executions in
	// total), yet only one result per call survived anywhere: the
	// loser's copy was discarded — either deduplicated on upload or
	// dropped by the peer-wise log sync's distributed GC.
	executed, unacked := 0, 0
	for _, sv := range cl.Servers {
		st := sv.StatsNow()
		executed += st.Executed
		unacked += st.Unacked
	}
	if executed != calls+1 {
		t.Fatalf("executed %d instances, want %d (the batch plus one duplicate)", executed, calls+1)
	}
	if unacked != 0 {
		t.Fatalf("%d results still unacked; the loser's copy was never discarded", unacked)
	}
}
