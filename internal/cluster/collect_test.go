package cluster

import (
	"testing"
	"time"
)

// Collection on a ring of two, in the simulator (pull-only, the paper's
// cost models): a long session leaves both coordinators' job tables at
// the calls in flight, not at the session's history — the successor
// learns the watermark with the session entries of the rounds it
// receives anyway — no finish is lost to a collection that beat its
// round (both count every call finished, as figures 9 and 10 plot
// them), and after the primary's crash the session goes on against
// the successor from above the watermark.
func TestRingOfTwoCollectsOnBothCoordinators(t *testing.T) {
	const (
		waves   = 10
		perWave = 20
		calls   = waves * perWave
	)
	cl := New(Config{
		Seed: 11, Coordinators: 2, Servers: 4, Clients: 1,
		ReplicationPeriod: 2 * time.Second, PollPeriod: time.Second,
		HeartbeatPeriod: time.Second, SuspicionTimeout: 10 * time.Second,
	})
	co0, co1 := cl.Coordinator(0), cl.Coordinator(1)
	peak0, peak1 := 0, 0
	for wave := 1; wave <= waves; wave++ {
		cl.SubmitBatch(0, perWave, "synthetic", 64, 200*time.Millisecond, 64)
		if !cl.RunUntilResults(0, wave*perWave, 10*time.Minute) {
			t.Fatalf("wave %d: %d/%d results", wave, cl.Client(0).ResultCount(), wave*perWave)
		}
		cl.World.RunFor(5 * time.Second) // the ack's poll, a round, its ack
		peak0, peak1 = max(peak0, co0.DB().Len()), max(peak1, co1.DB().Len())
	}
	// Bounded by what is in flight — a wave and what one replication
	// period finishes — whatever the session's length.
	if peak0 > 2*perWave || peak1 > 2*perWave {
		t.Fatalf("job tables peaked at %d and %d records between waves of %d; the session made %d calls", peak0, peak1, perWave, calls)
	}
	cl.World.RunFor(10 * time.Second)
	if n0, n1 := co0.DB().Len(), co1.DB().Len(); n0 != 0 || n1 != 0 {
		t.Fatalf("an idle, fully acknowledged session leaves %d records on the primary and %d on its successor", n0, n1)
	}
	if w0, w1 := co0.Collected("user-00", 1), co1.Collected("user-00", 1); w0 != calls || w1 != calls {
		t.Fatalf("watermarks %d and %d, want %d on both", w0, w1, calls)
	}
	if f0, f1 := co0.FinishedCount(), co1.FinishedCount(); f0 != calls || f1 != calls {
		t.Fatalf("finished counts %d (primary) and %d (successor), want %d on both: a finish was lost to a collection", f0, f1, calls)
	}
	if st := co0.StatsNow(); st.Collected != calls || st.CollectWaiting != 0 {
		t.Fatalf("primary stats %+v", st)
	}
	executed := 0
	for _, sv := range cl.Servers {
		executed += sv.StatsNow().Executed
	}

	// The primary dies with a wave in flight; the client fails over.
	cl.SubmitBatch(0, perWave, "synthetic", 64, 200*time.Millisecond, 64)
	cl.World.RunFor(600 * time.Millisecond)
	cl.World.Crash(CoordinatorID(0))
	if !cl.RunUntilResults(0, calls+perWave, 20*time.Minute) {
		t.Fatalf("after the failover: %d/%d results", cl.Client(0).ResultCount(), calls+perWave)
	}
	if got := cl.Client(0).Preferred(); got != CoordinatorID(1) {
		t.Fatalf("client settled on %s", got)
	}
	cl.World.RunFor(5 * time.Second)
	// The wave's records are acknowledged and still here: the ring's
	// other member has not heard they finished, and must when it returns.
	if st := co1.StatsNow(); co1.Collected("user-00", 1) != calls+perWave || st.Jobs != perWave || st.CollectWaiting != perWave {
		t.Fatalf("successor after the failover: watermark %d, %+v; want %d with the wave's %d records waiting",
			co1.Collected("user-00", 1), st, calls+perWave, perWave)
	}
	cl.World.Start(CoordinatorID(0))
	cl.World.RunFor(30 * time.Second)
	co0 = cl.Coordinator(0)
	if n0, n1 := co0.DB().Len(), co1.DB().Len(); n0 != 0 || n1 != 0 {
		t.Fatalf("once the ring is whole again: %d and %d records, want none", n0, n1)
	}
	if w := co0.Collected("user-00", 1); w != calls+perWave {
		t.Fatalf("the returned coordinator's watermark is %d, want %d", w, calls+perWave)
	}
	after := 0
	for _, sv := range cl.Servers {
		after += sv.StatsNow().Executed
	}
	if redone := after - executed - perWave; redone < 0 || redone > perWave {
		t.Fatalf("%d executions for the last wave of %d: a collected call ran again", after-executed, perWave)
	}
}

// A watermark outlives its records, so a restart must say it again: the
// primary raised a session's watermark, collected the whole session and
// crashed before the round that would have told its successor. The
// reloaded table is empty — no record is left to bring the watermark
// along — and the successor would keep the session's finished records
// for good if the reloaded watermark were not owed to it.
func TestRestartedCoordinatorTellsItsSuccessorTheWatermark(t *testing.T) {
	const calls = 8
	cl := New(Config{
		Seed: 12, Coordinators: 2, Servers: 4, Clients: 1,
		ReplicationPeriod: 2 * time.Second, PollPeriod: time.Second,
		HeartbeatPeriod: time.Second, SuspicionTimeout: 30 * time.Second,
	})
	co0, co1 := cl.Coordinator(0), cl.Coordinator(1)
	cl.SubmitBatch(0, calls, "synthetic", 64, 100*time.Millisecond, 64)
	if !cl.RunUntilResults(0, calls, time.Minute) {
		t.Fatalf("%d/%d results", cl.Client(0).ResultCount(), calls)
	}
	// Step to the instant the primary has collected the session and the
	// successor has not heard.
	for step := 0; co0.Collected("user-00", 1) != calls || co0.DB().Len() != 0; step++ {
		if step > 400 {
			t.Fatalf("setup: primary at watermark %d with %d records", co0.Collected("user-00", 1), co0.DB().Len())
		}
		cl.World.RunFor(25 * time.Millisecond)
	}
	if w, n := co1.Collected("user-00", 1), co1.DB().Len(); w != 0 || n != calls {
		t.Fatalf("setup: successor at watermark %d with %d records, want 0 and %d (finished, not yet told)", w, n, calls)
	}
	cl.World.Crash(CoordinatorID(0))
	cl.World.Start(CoordinatorID(0))
	cl.World.RunFor(10 * time.Second)
	co0 = cl.Coordinator(0)
	if w := co0.Collected("user-00", 1); w != calls {
		t.Fatalf("the restarted primary's watermark is %d, want %d", w, calls)
	}
	if w, n := co1.Collected("user-00", 1), co1.DB().Len(); w != calls || n != 0 {
		t.Fatalf("successor after the primary's restart: watermark %d, %d records; want %d and none", w, n, calls)
	}
}
