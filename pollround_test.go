package rpcv

import (
	"runtime"
	"testing"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/coordinator"
	"rpcv/internal/msglog"
	"rpcv/internal/node/nodetest"
	"rpcv/internal/proto"
	"rpcv/internal/store"
)

// pollGrid is one client session and its coordinator on hand-driven
// envs, with the bench's 20 ms poll period and nanosecond database.
type pollGrid struct {
	cli         *client.Client
	co          *coordinator.Coordinator
	cenv, coenv *nodetest.Env
	dec         proto.Decoder
}

const pollRoundPeriod = 20 * time.Millisecond

func newPollGrid() *pollGrid {
	g := &pollGrid{cenv: nodetest.NewEnv("client-u0-1", store.NewMemory()), coenv: nodetest.NewEnv("co", store.NewMemory())}
	g.co = coordinator.New(coordinator.Config{
		Coordinators:    []proto.NodeID{"co"},
		HeartbeatPeriod: time.Hour, HeartbeatTimeout: 24 * time.Hour,
		MaxTasksPerAck: 1 << 20,
	})
	g.co.Start(g.coenv)
	g.cli = client.New(client.Config{
		User: "u0", Session: 1, Coordinators: []proto.NodeID{"co"},
		PollPeriod: pollRoundPeriod, SuspicionTimeout: 24 * time.Hour,
		Logging: msglog.Optimistic,
	})
	g.cli.Start(g.cenv)
	return g
}

// toCoordinator delivers what the client sent, through the wire codec:
// the coordinator pays for decoding a Poll as it does on the real
// runtime. toClient delivers the coordinator's replies.
func (g *pollGrid) toCoordinator(tb testing.TB) {
	for _, m := range g.cenv.Take() {
		got, err := g.dec.DecodeMessage(proto.EncodeMessage(m))
		if err != nil {
			tb.Fatal(err)
		}
		g.co.Receive("client-u0-1", got)
	}
	g.coenv.Advance(time.Millisecond) // the database-cost timers
}

func (g *pollGrid) toClient() {
	for _, m := range g.coenv.Take() {
		if _, ok := m.(*proto.HeartbeatAck); !ok {
			g.cli.Receive("co", m)
		}
	}
}

// round is one poll period: the client's timer fires pollNow, the
// coordinator answers, the client takes the reply.
func (g *pollGrid) round(tb testing.TB) {
	g.cenv.Advance(pollRoundPeriod)
	g.toCoordinator(tb)
	g.toClient()
}

// submit issues n calls and has server sv0 finish those keep accepts;
// the client collects them in one round.
func (g *pollGrid) submit(tb testing.TB, n int, keep func(proto.RPCSeq) bool) {
	for i := 0; i < n; i++ {
		g.cli.Submit("echo", []byte("p"), 0, 0)
	}
	g.toCoordinator(tb)
	g.toClient()
	g.co.Receive("sv0", &proto.Heartbeat{From: "sv0", Role: proto.RoleServer, Capacity: n, WantWork: true})
	g.coenv.Advance(time.Millisecond)
	for _, m := range g.coenv.Take() {
		ack, ok := m.(*proto.HeartbeatAck)
		if !ok {
			continue
		}
		for _, task := range ack.Tasks {
			if keep(task.Task.Call.Seq) {
				g.co.Receive("sv0", &proto.TaskResult{From: "sv0", Task: task.Task, Output: task.Params})
			}
		}
	}
	g.coenv.Advance(time.Millisecond)
	g.coenv.Take() // TaskResultAcks
	g.round(tb)
}

// heavyShaped brings a grid to the steady state of a long open-loop
// run: held results delivered long ago, then a window of 32 calls in
// flight of which every other one finished ahead of its predecessor.
func heavyShaped(tb testing.TB, held int) *pollGrid {
	g := newPollGrid()
	g.submit(tb, held, func(proto.RPCSeq) bool { return true })
	g.submit(tb, 32, func(seq proto.RPCSeq) bool { return (int(seq)-held)%2 == 0 })
	if got := g.cli.ResultCount(); got != held+16 {
		tb.Fatalf("client holds %d results, want %d", got, held+16)
	}
	return g
}

// TestPollRoundAllocsDoNotGrowWithHeldResults guards result collection
// against costing O(every call the session ever made) again: a poll
// round (pollNow, the Poll through the codec, handlePoll, the empty
// reply) with 16 k results held allocates within 2x of one with 1 k.
func TestPollRoundAllocsDoNotGrowWithHeldResults(t *testing.T) {
	bytesPerRound := func(held int) float64 {
		g := heavyShaped(t, held)
		g.round(t)
		const rounds = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			g.round(t)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	small, big := bytesPerRound(1<<10), bytesPerRound(16<<10)
	t.Logf("bytes per poll round: %.0f at 1 k held results, %.0f at 16 k", small, big)
	if big > 2*small {
		t.Fatalf("a poll round allocates %.0f B at 16 k held results against %.0f B at 1 k: it grows with the session's age", big, small)
	}
}
