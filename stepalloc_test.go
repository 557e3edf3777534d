package rpcv

import (
	"testing"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/db"
	"rpcv/internal/node/nodetest"
	"rpcv/internal/proto"
	"rpcv/internal/server"
	"rpcv/internal/shared"
	"rpcv/internal/store"
)

// A call passes through a dozen logged or replied steps on its three
// tiers. The guards below drive each tier's handlers by hand, one 64 B
// call at a time, and count the allocations of a whole cycle: the
// messages, the records, the log entries and their keys — what the
// call itself is — and nothing per step besides: no closure per reply,
// per log completion, per delete or per execution, no key built twice,
// no queue entry per queued call, no copy of a delivered result.
// Each limit is what the cycle allocates, counted, harness included (the
// messages the test hands in, nodetest's send list and timers); before
// the per-step garbage went, the cycles counted 40 and 45 (coordinator,
// free and modelled cost), 17 (server) and 22 (client), and before the
// scheduler reused its queue entries and the client its log completion
// and the results as they arrived, 24 and 29 (coordinator) and 14
// (client).

// stepAllocs is the allocations of one cycle, averaged over 200 after a
// warm-up of 50 that grows the tables and queues to their steady size.
func stepAllocs(tb testing.TB, cycle func()) float64 {
	tb.Helper()
	if raceBuild {
		tb.Skip("allocation guard: the race detector's sync.Pool drops buffers")
	}
	for range 50 {
		cycle()
	}
	return testing.AllocsPerRun(200, cycle)
}

// TestCoordinatorCycleAllocations: submit, assign, result and the poll
// that collects the call before, through the coordinator's handlers.
// The modelled database cost adds a timer per reply and nothing else:
// the reply waits as a pooled value.
func TestCoordinatorCycleAllocations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cost  db.CostModel
		limit float64
	}{
		{"free", db.CostModel{}, 23},
		{"modelled cost", db.CostModel{PerOp: time.Microsecond}, 28},
	} {
		g := newCallGrid(64, tc.cost)
		n := stepAllocs(t, func() { g.call(t) })
		t.Logf("%s: a 64 B call allocates %.1f times in the coordinator", tc.name, n)
		if n > tc.limit {
			t.Errorf("%s: a 64 B call allocates %.1f times in the coordinator, over %.0f", tc.name, n, tc.limit)
		}
	}
}

// TestServerCycleAllocations: an assignment, its execution, the logged
// result and its ack, through the server's handlers.
func TestServerCycleAllocations(t *testing.T) {
	sv := server.New(server.Config{
		Coordinators: []proto.NodeID{"co"}, HeartbeatPeriod: time.Hour, SuspicionTimeout: 24 * time.Hour,
		Services: shared.BuiltinServices(),
	})
	env := nodetest.NewEnv("sv0", store.NewMemory())
	sv.Start(env)
	sv.Receive("co", &proto.ServerSyncReply{})
	params := make([]byte, 64)
	var seq proto.RPCSeq
	n := stepAllocs(t, func() {
		seq++
		task := proto.TaskID{Call: proto.CallID{User: "u0", Session: 1, Seq: seq}, Instance: 1}
		sv.Receive("co", &proto.HeartbeatAck{From: "co", Tasks: []proto.TaskAssignment{{Task: task, Service: "echo", Params: params}}})
		sv.Receive("co", &proto.TaskResultAck{Task: task})
		env.Take()
	})
	if st := sv.StatsNow(); st.Executed != int(seq) || st.Unacked != 0 {
		t.Fatalf("%d of %d calls executed, %d results unacknowledged", st.Executed, seq, st.Unacked)
	}
	t.Logf("a 64 B call allocates %.1f times in the server", n)
	if limit := 13.0; n > limit {
		t.Fatalf("a 64 B call allocates %.1f times in the server, over %.0f", n, limit)
	}
}

// TestClientCycleAllocations: a submit, its ack, its result, and the
// poll whose watermark lets it go, through the client's handlers.
func TestClientCycleAllocations(t *testing.T) {
	cli := client.New(client.Config{
		User: "u0", Session: 1, Coordinators: []proto.NodeID{"co"},
		PollPeriod: time.Hour, SuspicionTimeout: 24 * time.Hour,
	})
	env := nodetest.NewEnv("client-u0-1", store.NewMemory())
	cli.Start(env)
	params, output := make([]byte, 64), make([]byte, 64)
	n := stepAllocs(t, func() {
		seq := cli.Submit("echo", params, 0, 0)
		id := proto.CallID{User: "u0", Session: 1, Seq: seq}
		cli.Receive("co", &proto.SubmitAck{Call: id, MaxSeq: seq})
		cli.Receive("co", &proto.Results{User: "u0", Session: 1, Results: []proto.Result{{Call: id, Output: output, Server: "sv0"}}})
		cli.AckSoon()
		env.Advance(0)
		env.Take()
	})
	if st := cli.StatsNow(); st.Tracked != 0 {
		t.Fatalf("%d calls still tracked: the watermark did not pass them", st.Tracked)
	}
	t.Logf("a 64 B call allocates %.1f times in the client", n)
	if limit := 12.0; n > limit {
		t.Fatalf("a 64 B call allocates %.1f times in the client, over %.0f", n, limit)
	}
}
