package cluster

import (
	"fmt"
	"testing"
	"time"

	"rpcv/internal/proto"
)

// TestShardedClusterServesAllSessions boots a 4-shard deployment and
// checks the basic property of the sharded layer: every client's calls
// complete, sessions spread over more than one ring, and nobody needs a
// redirect when the cached map is current.
func TestShardedClusterServesAllSessions(t *testing.T) {
	cl := New(Config{
		Seed:         7,
		Shards:       4,
		Coordinators: 2,
		Servers:      8,
		Clients:      8,
	})
	if cl.ShardMap == nil || cl.ShardMap.Shards() != 4 {
		t.Fatalf("shard map not built")
	}
	const perClient = 3
	for i := 0; i < 8; i++ {
		cl.SubmitBatch(i, perClient, "synthetic", 100, time.Second, 32)
	}
	for i := 0; i < 8; i++ {
		if !cl.RunUntilResults(i, perClient, 10*time.Minute) {
			t.Fatalf("client %d: %d/%d results", i, cl.Client(i).ResultCount(), perClient)
		}
	}

	rings := make(map[int]bool)
	for i := 0; i < 8; i++ {
		st := cl.Client(i).StatsNow()
		if st.Redirects != 0 {
			t.Errorf("client %d: %d redirects with a current map", i, st.Redirects)
		}
		rings[cl.ShardMap.RingOf(st.Preferred)] = true
	}
	if len(rings) < 2 {
		t.Fatalf("all 8 sessions landed on one ring: hashing is not spreading")
	}

	// Coordinators must never have served a session they do not own.
	for _, id := range cl.CoordinatorIDs {
		ring := cl.ShardMap.RingOf(id)
		for _, rec := range cl.Coordinators[id].DB().PeekAll() {
			if owner := cl.ShardMap.Owner(rec.Call.User, rec.Call.Session); owner != ring {
				// Foreign records are fine (cross-shard copies) but only
				// as exactly that: the owner's successor holding state.
				if cl.ShardMap.SuccessorShard(owner) != ring {
					t.Errorf("%s (ring %d) stores %s owned by ring %d (not its guard)",
						id, ring, rec.Call, owner)
				}
			}
		}
	}
}

// TestShardRedirectRepairsMisroutedClient forces a client onto a wrong
// ring and checks one redirect round trip re-routes it and completes
// the bounced call.
func TestShardRedirectRepairsMisroutedClient(t *testing.T) {
	cl := New(Config{
		Seed:         11,
		Shards:       3,
		Coordinators: 2,
		Servers:      6,
		Clients:      1,
	})
	ci := cl.Client(0)
	st := ci.StatsNow()
	home := cl.ShardMap.RingOf(st.Preferred)
	wrongRing := (home + 1) % 3
	wrong := cl.ShardMap.Ring(wrongRing)[0]

	cl.World.Schedule(0, func() { ci.ForcePreferred(wrong) })
	cl.Submit(0, "synthetic", []byte("x"), time.Second, 16)
	if !cl.RunUntilResults(0, 1, 5*time.Minute) {
		t.Fatalf("misrouted call never completed")
	}
	if got := ci.StatsNow().Redirects; got == 0 {
		t.Fatalf("expected at least one redirect, got %d", got)
	}
	if ring := cl.ShardMap.RingOf(ci.Preferred()); ring != home {
		t.Fatalf("client settled on ring %d, home is %d", ring, home)
	}
}

// TestWholeRingKillRebalancesToSuccessor is the acceptance scenario:
// kill an entire coordinator ring and require (a) every result the dead
// ring had completed to survive on its successor shard, and (b) the
// in-flight and follow-up work of the lost shard's sessions to complete
// on the successor — the guard/adoption rebalance.
func TestWholeRingKillRebalancesToSuccessor(t *testing.T) {
	cl := New(Config{
		Seed:              13,
		Shards:            3,
		Coordinators:      2,
		Servers:           6,
		Clients:           6,
		ReplicationPeriod: 10 * time.Second,
	})

	// Phase A: complete a first batch everywhere and let cross-shard
	// sync copy the finished records to each ring's successor.
	const batchA = 2
	for i := 0; i < 6; i++ {
		cl.SubmitBatch(i, batchA, "synthetic", 100, time.Second, 32)
	}
	for i := 0; i < 6; i++ {
		if !cl.RunUntilResults(i, batchA, 10*time.Minute) {
			t.Fatalf("phase A: client %d incomplete", i)
		}
	}
	cl.World.RunFor(30 * time.Second) // two cross-shard sync periods

	// The victim is the ring owning client 0's session; at least that
	// client rides on it. Record every phase-A call of victim-owned
	// sessions: these must survive the ring's death.
	victim := cl.ShardMap.Owner("user-00", 1)
	succ := cl.ShardMap.SuccessorShard(victim)
	var victimClients []int
	for i := 0; i < 6; i++ {
		if cl.ShardMap.Owner(proto.UserID(clientUser(i)), 1) == victim {
			victimClients = append(victimClients, i)
		}
	}
	mustSurvive := make(map[proto.CallID]bool)
	for _, i := range victimClients {
		for seq := proto.RPCSeq(1); seq <= batchA; seq++ {
			mustSurvive[proto.CallID{User: proto.UserID(clientUser(i)), Session: 1, Seq: seq}] = true
		}
	}

	// Phase B: put fresh work in flight on the victim ring, give the
	// cross-shard sync one period to see it, then kill the whole ring.
	const batchB = 2
	for _, i := range victimClients {
		cl.SubmitBatch(i, batchB, "synthetic", 100, 30*time.Second, 32)
	}
	cl.World.RunFor(15 * time.Second)
	cl.CrashRing(victim)

	// Adoption: the successor ring must take over the victim's shard.
	deadline := cl.World.Now().Add(10 * time.Minute)
	adopted := cl.World.RunUntil(func() bool {
		for _, id := range cl.ShardRing(succ) {
			for _, s := range cl.Coordinators[id].AdoptedShards() {
				if s == victim {
					return true
				}
			}
		}
		return false
	}, deadline)
	if !adopted {
		t.Fatalf("successor ring %d never adopted victim ring %d", succ, victim)
	}

	// No lost completed results: every phase-A record of the victim's
	// sessions must be finished, with its payload, on the successor —
	// or at or below the watermark the successor holds for the session:
	// the client acknowledged the result and both rings let it go.
	for call := range mustSurvive {
		found := false
		for _, id := range cl.ShardRing(succ) {
			co := cl.Coordinators[id]
			if rec, ok := co.DB().Peek(call); ok &&
				rec.State == proto.TaskFinished && len(rec.Output) > 0 {
				found = true
				break
			}
			if call.Seq <= co.Collected(call.User, call.Session) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("completed result %s lost with ring %d", call, victim)
		}
	}

	// Rebalanced progress: the victim's clients finish phase B against
	// the successor ring.
	for _, i := range victimClients {
		if !cl.RunUntilResults(i, batchA+batchB, 30*time.Minute) {
			t.Fatalf("client %d: only %d/%d results after rebalance",
				i, cl.Client(i).ResultCount(), batchA+batchB)
		}
		if ring := cl.ShardMap.RingOf(cl.Client(i).Preferred()); ring != succ {
			t.Errorf("client %d settled on ring %d, want successor %d", i, ring, succ)
		}
	}
}

// clientUser mirrors cluster.New's user naming for client i.
func clientUser(i int) string { return fmt.Sprintf("user-%02d", i) }
