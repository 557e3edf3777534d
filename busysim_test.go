package rpcv

import (
	"fmt"
	"testing"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/coordinator"
	"rpcv/internal/msglog"
	"rpcv/internal/node"
	"rpcv/internal/proto"
	"rpcv/internal/server"
	"rpcv/internal/sim"
)

// The busy-server property on the simulator, where no process can be
// starved: a server whose slots are all busy keeps beating, and is
// neither suspected nor re-issued, at the benchmark's 20 ms beat and
// 250 ms suspicion timeout (busyBeat, busyTimeout) and a 5 ms link. So
// a failure of TestBusyServerIsNeitherSuspectedNorReissued that this
// test does not share is the box's, not the protocol's. Two cases:
// a task three times as long as the suspicion timeout, and 200 short
// ones at 16 in flight on two one-slot servers, where assignments are
// on the wire while a server's beats and syncs report its running set
// without them — the test counts those, and fails if none happened.
func TestBusyServerIsNeitherSuspectedNorReissuedOnTheSimulator(t *testing.T) {
	g := newBusySim(t)
	g.run(t, 1, 1, 3*busyTimeout)
	g.check(t, "one 750 ms call on a 250 ms timeout", 1)
	g.run(t, 200, 16, 20*time.Millisecond)
	g.check(t, "200 x 20 ms at 16 in flight", 201)
	t.Logf("beats and syncs sent with an assignment on the wire to their server, by kind: %v", g.overlaps)
	if g.overlaps[(*proto.Heartbeat)(nil).Kind()] == 0 || g.overlaps[(*proto.ServerSync)(nil).Kind()] == 0 {
		t.Errorf("beats and syncs sent with an assignment on the wire to their server: %v; want some of each", g.overlaps)
	}
}

// busySim is one coordinator, two one-slot servers and a client on a
// sim.World whose every link takes 5 ms. It watches the wire: which
// HeartbeatAck carrying tasks is on its way to which server, and what a
// server sends meanwhile.
type busySim struct {
	w       *sim.World
	co      *coordinator.Coordinator
	servers []*server.Server
	cli     *client.Client
	done    int

	toServer map[proto.NodeID]map[proto.Message]bool // assignments sent, not yet delivered
	overlaps map[string]int                          // by kind: a server's beats and syncs sent meanwhile
}

func newBusySim(t *testing.T) *busySim {
	g := &busySim{
		w:        sim.NewWorld(sim.Config{Seed: 47, Net: link(5 * time.Millisecond)}),
		toServer: make(map[proto.NodeID]map[proto.Message]bool),
		overlaps: make(map[string]int),
	}
	g.co = coordinator.New(coordinator.Config{Coordinators: []proto.NodeID{"co"},
		HeartbeatPeriod: busyBeat, HeartbeatTimeout: busyTimeout})
	g.w.AddNode("co", &watched{Handler: g.co, sent: func(to proto.NodeID, m proto.Message) {
		if ack, ok := m.(*proto.HeartbeatAck); ok && len(ack.Tasks) > 0 {
			g.toServer[to][m] = true
		}
	}})
	for i := range 2 {
		id := serverID(i)
		g.toServer[id] = make(map[proto.Message]bool)
		sv := server.New(server.Config{Coordinators: []proto.NodeID{"co"},
			HeartbeatPeriod: busyBeat, SuspicionTimeout: busyTimeout, Parallelism: 1})
		g.servers = append(g.servers, sv)
		g.w.AddNode(id, &watched{Handler: sv,
			received: func(m proto.Message) { delete(g.toServer[id], m) },
			sent: func(_ proto.NodeID, m proto.Message) {
				switch m.(type) {
				case *proto.Heartbeat, *proto.ServerSync:
					if len(g.toServer[id]) > 0 {
						g.overlaps[m.Kind()]++
					}
				}
			}})
	}
	g.cli = client.New(client.Config{User: "busy", Session: 1, Coordinators: []proto.NodeID{"co"},
		PollPeriod: busyBeat, SuspicionTimeout: busyTimeout, Disk: msglog.InstantDisk(),
		OnResult: func(proto.Result, time.Time) { g.done++ }})
	g.w.AddNode("client-busy-1", g.cli)
	for _, id := range g.w.Nodes() {
		g.w.Start(id)
	}
	g.w.RunFor(time.Second) // the servers' first syncs, the client's first polls
	return g
}

// run makes n calls of exec each, at most inFlight at a time, and runs
// the world until every result is in.
func (g *busySim) run(t *testing.T, n, inFlight int, exec time.Duration) {
	t.Helper()
	start, issued := g.done, 0
	var issue func()
	issue = func() {
		for issued < n && issued-(g.done-start) < inFlight {
			issued++
			g.cli.Submit("sleep", []byte(fmt.Sprint(exec)), exec, 2)
		}
	}
	issue()
	deadline := g.w.Now().Add(time.Minute)
	for g.done-start < n && g.w.Now().Before(deadline) {
		g.w.RunFor(busyBeat)
		issue()
	}
	if g.done-start != n {
		t.Fatalf("%d of %d results after a virtual minute", g.done-start, n)
	}
	g.w.RunFor(time.Second) // a suspicion would have ripened by now
}

func (g *busySim) check(t *testing.T, what string, executed int) {
	t.Helper()
	var sv server.Stats
	for _, s := range g.servers {
		one := s.StatsNow()
		sv.Executed += one.Executed
		sv.Dedup += one.Dedup
		sv.Failovers += one.Failovers
	}
	co := g.co.StatsNow()
	if sv.Executed != executed || sv.Dedup != 0 || co.Rescheduled != 0 || co.DupResults != 0 {
		t.Errorf("%s: executed %d (want %d), server dedups %d, rescheduled %d, duplicate results %d; want none of the last three",
			what, sv.Executed, executed, sv.Dedup, co.Rescheduled, co.DupResults)
	}
	if s := g.co.SuspectedServers(); len(s) != 0 || sv.Failovers != 0 || g.cli.StatsNow().Failovers != 0 {
		t.Errorf("%s: the coordinator suspects %v, the servers failed over %d times, the client %d",
			what, s, sv.Failovers, g.cli.StatsNow().Failovers)
	}
}

// watched is a node whose messages in and out a test sees.
type watched struct {
	node.Handler
	received func(proto.Message)
	sent     func(to proto.NodeID, m proto.Message)
}

func (h *watched) Start(env node.Env) { h.Handler.Start(watchedEnv{Env: env, sent: h.sent}) }

func (h *watched) Receive(from proto.NodeID, m proto.Message) {
	if h.received != nil {
		h.received(m)
	}
	h.Handler.Receive(from, m)
}

type watchedEnv struct {
	node.Env
	sent func(to proto.NodeID, m proto.Message)
}

func (e watchedEnv) Send(to proto.NodeID, m proto.Message) {
	e.sent(to, m)
	e.Env.Send(to, m)
}

// link is a network whose every message takes the same time.
type link time.Duration

func (l link) Transfer(_, _ proto.NodeID, _ int, now time.Time) (time.Time, bool) {
	return now.Add(time.Duration(l)), true
}
