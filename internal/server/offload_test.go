package server

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/sim"
)

// Service bodies run off the event loop (node.Offload). These tests
// host the server on the simulator's Env plus a node.Offloader that
// only queues: the test decides when a body runs and when its
// completion reaches the loop, so everything the server says while a
// body is "executing" can be read deterministically.

// offloadEnv is one incarnation's Env with the capability added.
type offloadEnv struct {
	node.Env
	host *offloadHost
}

func (e *offloadEnv) Offload(work, done func()) {
	e.host.bodies = append(e.host.bodies, &body{work: work, done: done})
}

// body is one offloaded service call, held until the test releases it.
type body struct {
	work, done func()
}

// offloadHost is the handler the world sees: the server, started on an
// offloadEnv. It survives restarts, as the bodies it holds do.
type offloadHost struct {
	*Server
	w      *sim.World
	bodies []*body
	logs   []string // the server's Env.Logf lines
}

func (h *offloadHost) Start(env node.Env) { h.Server.Start(&offloadEnv{Env: env, host: h}) }

// finish runs body i to completion: the work where it stands, the
// completion as an event on the server's loop.
func (h *offloadHost) finish(i int) {
	b := h.bodies[i]
	b.work()
	h.w.Schedule(0, b.done)
	h.w.RunFor(time.Millisecond)
}

// recCoord is fakeCoord plus a record of every heartbeat, so a test can
// read what a busy server advertised.
type recCoord struct {
	fakeCoord
	beats []*proto.Heartbeat
	log   []string // every message received, in order, by kind
}

func (c *recCoord) Receive(from proto.NodeID, msg proto.Message) {
	switch m := msg.(type) {
	case *proto.Heartbeat:
		c.beats = append(c.beats, m)
		c.log = append(c.log, fmt.Sprintf("beat cap=%d want=%v", m.Capacity, m.WantWork))
	case *proto.ServerSync:
		c.log = append(c.log, fmt.Sprintf("sync tasks=%d running=%d", len(m.Tasks), len(m.Running)))
	case *proto.TaskResult:
		c.log = append(c.log, fmt.Sprintf("result %d err=%q", m.Task.Call.Seq, m.Err))
	}
	c.fakeCoord.Receive(from, msg)
}

// svcTask is an assignment for the registered service "svc" with no
// timer in front of it: the body is the whole execution.
func svcTask(seq int) proto.TaskAssignment {
	ta := task(seq, 1)
	ta.Service, ta.ExecTime, ta.ResultSize = "svc", 0, 0
	ta.Params = []byte{byte(seq)}
	return ta
}

func echoSvc(p []byte) ([]byte, error) { return append([]byte("out"), p...), nil }

func offloadRig(t *testing.T, cfg Config) (*sim.World, *offloadHost, *recCoord) {
	t.Helper()
	cfg.Coordinators = []proto.NodeID{"co"}
	if cfg.Services == nil {
		cfg.Services = map[string]Service{"svc": echoSvc}
	}
	h := &offloadHost{Server: New(cfg)}
	w := sim.NewWorld(sim.Config{Seed: 11, Trace: func(_ time.Time, id proto.NodeID, line string) {
		if id == "sv" {
			h.logs = append(h.logs, line)
		}
	}})
	h.w = w
	rc := &recCoord{fakeCoord: fakeCoord{ackAll: true}}
	w.AddNode("co", rc)
	w.AddNode("sv", h)
	w.Start("co")
	w.Start("sv")
	return w, h, rc
}

// assign delivers one HeartbeatAck carrying the tasks, whatever the
// server last advertised (a push crossing a pull does the same).
func assign(w *sim.World, h *offloadHost, tasks ...proto.TaskAssignment) {
	w.Schedule(0, func() { h.Receive("co", &proto.HeartbeatAck{From: "co", Tasks: tasks}) })
	w.RunFor(time.Millisecond)
}

func TestBusyServerBeatsAndSaysWhatItRuns(t *testing.T) {
	for _, tc := range []struct {
		parallelism, wantCap int
		wantWork             bool
	}{{1, 0, false}, {2, 1, true}} {
		w, h, rc := offloadRig(t, Config{Parallelism: tc.parallelism, Obs: obs.New("sv")})
		w.RunFor(7 * time.Second) // booted and synchronized
		assign(w, h, svcTask(1))
		if len(h.bodies) != 1 || h.StatsNow().Running != 1 {
			t.Fatalf("parallelism %d: %d bodies offloaded, running = %d, want 1 and 1",
				tc.parallelism, len(h.bodies), h.StatsNow().Running)
		}
		beats, syncs := len(rc.beats), len(rc.syncs)
		w.RunFor(2 * time.Minute) // the body "executes": 24 beats, two of them syncs
		if len(rc.beats) < beats+20 {
			t.Fatalf("parallelism %d: %d beats while the body ran, want one per period",
				tc.parallelism, len(rc.beats)-beats)
		}
		for _, hb := range rc.beats[beats:] {
			if hb.Capacity != tc.wantCap || hb.WantWork != tc.wantWork {
				t.Fatalf("parallelism %d: busy server advertised capacity %d, want-work %v; want %d, %v",
					tc.parallelism, hb.Capacity, hb.WantWork, tc.wantCap, tc.wantWork)
			}
		}
		if len(rc.syncs) == syncs {
			t.Fatalf("parallelism %d: no periodic sync in two minutes", tc.parallelism)
		}
		for _, sy := range rc.syncs[syncs:] {
			if !reflect.DeepEqual(sy.Running, []proto.TaskID{svcTask(1).Task}) {
				t.Fatalf("parallelism %d: sync reports running %v, want the executing task",
					tc.parallelism, sy.Running)
			}
		}
		if len(rc.results) != 0 || h.StatsNow().Executed != 0 {
			t.Fatalf("parallelism %d: a result before the body returned", tc.parallelism)
		}
		h.finish(0)
		if len(rc.results) != 1 || string(rc.results[0].Output) != "out\x01" || h.StatsNow().Running != 0 {
			t.Fatalf("parallelism %d: after the completion: results %+v, stats %+v",
				tc.parallelism, rc.results, h.StatsNow())
		}
		if exec := time.Duration(h.sm.execTime.Snapshot().Max); exec < 2*time.Minute {
			t.Fatalf("execution measured %v, want the two minutes the body held its slot", exec)
		}
	}
}

func TestBacklogWaitsForTheCompletion(t *testing.T) {
	w, h, rc := offloadRig(t, Config{Parallelism: 1})
	w.RunFor(7 * time.Second)
	assign(w, h, svcTask(1))
	assign(w, h, svcTask(2)) // over-assignment: a push that crossed a pull
	if st := h.StatsNow(); len(h.bodies) != 1 || st.Running != 1 || st.Backlog != 1 {
		t.Fatalf("second assignment at parallelism 1: %d bodies, stats %+v; want 1 running, 1 backlogged",
			len(h.bodies), st)
	}
	// The body returning is not enough: the slot frees when the
	// completion runs on the loop.
	h.bodies[0].work()
	w.RunFor(time.Second)
	if len(h.bodies) != 1 {
		t.Fatal("backlogged task started before the first completion ran")
	}
	w.Schedule(0, h.bodies[0].done)
	w.RunFor(time.Millisecond)
	if st := h.StatsNow(); len(h.bodies) != 2 || st.Running != 1 || st.Backlog != 0 || st.Executed != 1 {
		t.Fatalf("after the first completion: %d bodies, stats %+v; want the backlogged task running",
			len(h.bodies), st)
	}
	h.finish(1)
	if len(rc.results) != 2 || h.StatsNow().Executed != 2 {
		t.Fatalf("results = %d, executed = %d, want 2 and 2", len(rc.results), h.StatsNow().Executed)
	}
}

func TestParallelismBoundsOutstandingBodies(t *testing.T) {
	w, h, rc := offloadRig(t, Config{Parallelism: 2})
	w.RunFor(7 * time.Second)
	assign(w, h, svcTask(1), svcTask(2), svcTask(3))
	if st := h.StatsNow(); len(h.bodies) != 2 || st.Running != 2 || st.Backlog != 1 {
		t.Fatalf("three assignments at parallelism 2: %d bodies outstanding, stats %+v; want 2, and 1 backlogged",
			len(h.bodies), st)
	}
	// Completions may come back in any order.
	h.finish(1)
	if st := h.StatsNow(); len(h.bodies) != 3 || st.Running != 2 || st.Backlog != 0 {
		t.Fatalf("after one completion: %d bodies, stats %+v; want the third started", len(h.bodies), st)
	}
	h.finish(0)
	h.finish(2)
	if len(rc.results) != 3 || h.StatsNow().Running != 0 {
		t.Fatalf("results = %d, stats %+v", len(rc.results), h.StatsNow())
	}
}

func TestCancelMidBodyDiscardsTheResultAndKeepsTheSlot(t *testing.T) {
	w, h, rc := offloadRig(t, Config{Parallelism: 1})
	w.RunFor(7 * time.Second)
	assign(w, h, svcTask(1))
	cancel := func() {
		w.Schedule(0, func() { h.Receive("co", &proto.TaskCancel{Task: svcTask(1).Task}) })
		w.RunFor(time.Millisecond)
	}
	cancel()
	cancel() // idempotent
	if st := h.StatsNow(); st.Discarded != 1 || st.Running != 1 {
		t.Fatalf("after the cancel: %+v; want 1 discarded and the slot still taken", st)
	}
	// The slot is taken for everyone: the beat says so, the sync no
	// longer claims the withdrawn instance, and new work is backlogged.
	h.needSync = true
	beats, syncs := len(rc.beats), len(rc.syncs)
	w.RunFor(11 * time.Second)
	if len(rc.syncs) == syncs || len(rc.syncs[syncs].Running) != 0 {
		t.Fatalf("sync after the cancel: %+v, want one that reports nothing running", rc.syncs[syncs:])
	}
	if len(rc.beats) == beats || rc.beats[len(rc.beats)-1].Capacity != 0 {
		t.Fatalf("beat after the cancel: %+v, want capacity 0", rc.beats[beats:])
	}
	assign(w, h, svcTask(2))
	if st := h.StatsNow(); len(h.bodies) != 1 || st.Backlog != 1 {
		t.Fatalf("assignment beside a cancelled body: %d bodies, stats %+v; want it backlogged", len(h.bodies), st)
	}
	// The same call, re-issued as another instance, is not deduplicated
	// against the withdrawn one: its result is going nowhere.
	again := svcTask(1)
	again.Task.Instance = 2
	assign(w, h, again)
	if st := h.StatsNow(); st.Dedup != 0 || st.Backlog != 2 {
		t.Fatalf("re-issue of the cancelled call: %+v, want it backlogged, not deduplicated", st)
	}
	h.finish(0)
	st := h.StatsNow()
	if st.Executed != 0 || st.Uploaded != 0 || st.Unacked != 0 || st.Discarded != 1 || len(rc.results) != 0 {
		t.Fatalf("cancelled body produced something: %+v, %d results", st, len(rc.results))
	}
	if n := w.Disk("sv").Len(); n != 0 {
		t.Fatalf("cancelled body left %d entries on disk", n)
	}
	if len(h.bodies) != 2 || st.Running != 1 || st.Backlog != 1 {
		t.Fatalf("slot not handed on at the completion: %d bodies, %+v", len(h.bodies), st)
	}
}

func TestCompletionOfADeadIncarnationIsANoOp(t *testing.T) {
	for _, restart := range []bool{false, true} {
		w, h, rc := offloadRig(t, Config{})
		w.RunFor(7 * time.Second)
		assign(w, h, svcTask(1))
		if restart {
			w.Restart("sv") // Stop + Start on the same struct
			w.RunFor(7 * time.Second)
		} else {
			w.Crash("sv")
		}
		before := h.StatsNow()
		h.bodies[0].work()
		h.bodies[0].done()
		w.RunFor(time.Minute)
		if st := h.StatsNow(); st != before || st.Executed != 0 || len(rc.results) != 0 {
			t.Fatalf("restart=%v: completion of a dead incarnation took effect: stats %+v, were %+v; %d results",
				restart, st, before, len(rc.results))
		}
		if n := w.Disk("sv").Len(); n != 0 {
			t.Fatalf("restart=%v: %d entries on disk", restart, n)
		}
		if restart {
			// The new incarnation is untouched and works.
			assign(w, h, svcTask(2))
			h.finish(1)
			if len(rc.results) != 1 || rc.results[0].Task.Call.Seq != 2 {
				t.Fatalf("new incarnation: results %+v", rc.results)
			}
		}
	}
}

func TestErrorAndPanicBothArriveAsErr(t *testing.T) {
	w, h, rc := offloadRig(t, Config{
		Parallelism: 2,
		Services: map[string]Service{
			"fails":  func([]byte) ([]byte, error) { return nil, errors.New("exploded") },
			"panics": func([]byte) ([]byte, error) { panic("poison") },
		},
	})
	w.RunFor(7 * time.Second)
	fails, panics := svcTask(1), svcTask(2)
	fails.Service, panics.Service = "fails", "panics"
	assign(w, h, fails, panics)
	h.finish(0)
	h.finish(1)
	if len(rc.results) != 2 {
		t.Fatalf("results = %d, want 2", len(rc.results))
	}
	if r := rc.results[0]; r.Err != "exploded" || r.Output != nil {
		t.Fatalf("returned error: %+v", r)
	}
	if r := rc.results[1]; r.Err != "service panicked: poison" || r.Output != nil {
		t.Fatalf("panic: %+v", r)
	}
	if st := h.StatsNow(); st.Executed != 2 || st.Running != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The stack goes to the log, not to the client.
	stacks := 0
	for _, line := range h.logs {
		if strings.Contains(line, `service "panics" panicked`) && strings.Contains(line, "goroutine ") {
			stacks++
		}
	}
	if stacks != 1 {
		t.Fatalf("panic stack logged %d times, want once; log: %q", stacks, h.logs)
	}
}

// TestInlineFallbackKeepsTheMessageSequence pins what a coordinator
// sees from a server on an Env without the capability — the simulator,
// where every figure must stay reproducible. The sequence is the one
// the server produced when it called the service on its loop; the
// existing tests of this package, which all run on such an Env, pin the
// rest.
func TestInlineFallbackKeepsTheMessageSequence(t *testing.T) {
	want := []string{
		"sync tasks=0 running=0", // every incarnation synchronizes first
		"beat cap=2 want=true",   // the first beat, answered with tasks 1 and 2
		`result 1 err=""`,        // task 1 is over before task 2 starts,
		"beat cap=2 want=true",   // so its completion pulls for two slots
		`result 2 err=""`,
		"beat cap=2 want=true", // answered with task 3
		`result 3 err=""`,
		"beat cap=2 want=true",
		"beat cap=2 want=true", // the next periodic beat
	}
	w := sim.NewWorld(sim.Config{Seed: 11})
	rc := &recCoord{fakeCoord: fakeCoord{ackAll: true}}
	rc.grant = []proto.TaskAssignment{svcTask(1), svcTask(2), svcTask(3)}
	w.AddNode("co", rc)
	w.AddNode("sv", New(Config{
		Coordinators: []proto.NodeID{"co"},
		Parallelism:  2,
		Services:     map[string]Service{"svc": echoSvc},
	}))
	w.Start("co")
	w.Start("sv")
	w.RunFor(12 * time.Second)
	if got := rc.log; !reflect.DeepEqual(got, want) {
		t.Fatalf("inline fallback:\n got %s\nwant %s", strings.Join(got, " | "), strings.Join(want, " | "))
	}
}
