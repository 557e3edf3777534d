package server

import (
	"errors"
	"testing"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/node/nodetest"
	"rpcv/internal/proto"
	"rpcv/internal/sim"
)

// A dequeued assignment leaves nothing behind in the backlog's array:
// its params would stay reachable as long as the array does. A start
// takes the head without sliding the slice over it (a slot in front of
// the slice is as unreachable to the code as it is reachable to the
// collector), and after a start and after a cancel every slot past the
// backlog's length is zero. The simulator runs the server on the
// test's goroutine: between two RunFor calls, the test is the loop.
//
//rpcv:loop-only
func TestBacklogKeepsNoDequeuedAssignment(t *testing.T) {
	w, sv, _ := rig(t, Config{Parallelism: 1})
	tasks := []proto.TaskAssignment{task(1, 1), task(2, 1), task(3, 1), task(4, 1)}
	for i := range tasks {
		tasks[i].Params = []byte{byte(i + 1)}
	}
	w.Schedule(0, func() { sv.Receive("co", &proto.HeartbeatAck{From: "co", Tasks: tasks}) })
	w.RunFor(3 * time.Second) // 1 running, 2..4 backlogged
	if n := len(sv.backlog); n != 3 {
		t.Fatalf("backlog = %d, want 3", n)
	}
	base := &sv.backlog[0]
	zeroTail := func(after string) {
		t.Helper()
		for i, a := range sv.backlog[len(sv.backlog):cap(sv.backlog)] {
			if a.Params != nil || a.Task != (proto.TaskID{}) {
				t.Fatalf("after %s: slot %d past the backlog's %d still holds %s", after, len(sv.backlog)+i, len(sv.backlog), a.Task)
			}
		}
	}

	w.Schedule(0, func() { sv.Receive("co", &proto.TaskCancel{Task: tasks[2].Task}) })
	w.RunFor(time.Second)
	if n := len(sv.backlog); n != 2 {
		t.Fatalf("after the cancel: backlog = %d, want 2", n)
	}
	zeroTail("a cancel")

	w.RunFor(10 * time.Second) // task 1 completes, task 2 starts
	if n := len(sv.backlog); n != 1 || sv.backlog[0].Task != tasks[3].Task {
		t.Fatalf("after a start: backlog = %d, want task 4 alone", n)
	}
	if &sv.backlog[:1][0] != base {
		t.Fatal("a start moved the backlog's start past the dequeued slot")
	}
	zeroTail("a start")
}

// releaseEnv is one incarnation's Env with node.Releaser added: it
// records what the server gives back instead of pooling it.
type releaseEnv struct {
	node.Env
	host *releaseHost
}

func (e *releaseEnv) Release(b []byte) { e.host.released = append(e.host.released, b) }

// releaseHost is the handler the world sees: the server, started on a
// releaseEnv.
type releaseHost struct {
	*Server
	released [][]byte
}

func (h *releaseHost) Start(env node.Env) { h.Server.Start(&releaseEnv{Env: env, host: h}) }

// Once a body has returned, the server gives back a task's params of
// BlobMin bytes or more, whatever the body returned — an output of its
// own or an error — unless that output is params itself or a slice of
// its array: the result log keeps that one.
func TestFinishReleasesLargeParamsUnlessTheOutputSharesThem(t *testing.T) {
	h := &releaseHost{Server: New(Config{
		Coordinators: []proto.NodeID{"co"},
		Services: map[string]Service{
			"copy":  func(p []byte) ([]byte, error) { return append([]byte(nil), p...), nil },
			"same":  func(p []byte) ([]byte, error) { return p, nil },
			"tail":  func(p []byte) ([]byte, error) { return p[len(p)/2 : len(p)-1], nil },
			"fails": func([]byte) ([]byte, error) { return nil, errors.New("no") },
		},
	})}
	w := sim.NewWorld(sim.Config{Seed: 11})
	// Nothing is acknowledged, so no output goes back here: what is
	// released is the params alone (outputs: TestAckedOutputGoesBack…).
	fc := &fakeCoord{}
	w.AddNode("co", fc)
	w.AddNode("sv", h)
	w.Start("co")
	w.Start("sv")
	w.RunFor(7 * time.Second)

	for i, tc := range []struct {
		service  string
		size     int
		released bool
	}{
		{"copy", 64 << 10, true},
		{"fails", 64 << 10, true},
		{"copy", proto.BlobMin, true},
		{"copy", proto.BlobMin - 1, false},
		{"same", 64 << 10, false},
		{"tail", 64 << 10, false},
	} {
		ta := svcTask(i + 1)
		ta.Service, ta.Params = tc.service, make([]byte, tc.size)
		h.released = nil
		w.Schedule(0, func() { h.Receive("co", &proto.HeartbeatAck{From: "co", Tasks: []proto.TaskAssignment{ta}}) })
		w.RunFor(time.Millisecond)
		if len(fc.results) != i+1 {
			t.Fatalf("%s of %d B: %d results, want %d", tc.service, tc.size, len(fc.results), i+1)
		}
		switch {
		case !tc.released && len(h.released) != 0:
			t.Fatalf("%s of %d B: params released though the server keeps them", tc.service, tc.size)
		case tc.released && (len(h.released) != 1 || len(h.released[0]) != tc.size || &h.released[0][0] != &ta.Params[0]):
			t.Fatalf("%s of %d B: released %d slices, want the task's params once", tc.service, tc.size, len(h.released))
		}
	}
}

// recordingEnv is a hand-driven Env with node.Releaser added: it
// records what the server gives back.
type recordingEnv struct {
	*nodetest.Env
	released [][]byte
}

func (e *recordingEnv) Release(b []byte) { e.released = append(e.released, b) }

// gave reports whether the env was given b's array exactly once, and
// nothing else.
func (e *recordingEnv) gave(b []byte) bool {
	return len(e.released) == 1 && &e.released[0][:1][0] == &b[:1][0]
}

// A result's output goes back to the runtime once, and only once the
// result is acknowledged and its log entry — header and output — is gone
// from the disk: not while unacknowledged however often it is resent,
// not while the delete is staged or committing, never again on a second
// ack. When the body returned its params, the output is the params
// array, given back then and only then; a delete that fails gives
// nothing back, since the disk may still hold the output.
func TestAckedOutputGoesBackOnceItsLogEntryIsGone(t *testing.T) {
	for _, tc := range []struct {
		name    string
		service Service
		fail    bool
	}{
		{"copy", func(p []byte) ([]byte, error) { return append([]byte(nil), p...), nil }, false},
		{"params", func(p []byte) ([]byte, error) { return p, nil }, false},
		{"failed delete", func(p []byte) ([]byte, error) { return append([]byte(nil), p...), nil }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := nodetest.NewCrashDisk(t, "batch")
			env := &recordingEnv{Env: nodetest.NewEnv("sv", d.Disk)}
			sv := New(Config{Coordinators: []proto.NodeID{"co"}, Services: map[string]Service{"svc": tc.service}})
			sv.Start(env)
			ta := svcTask(1)
			ta.Params = make([]byte, 64<<10)
			sv.Receive("co", &proto.HeartbeatAck{From: "co", Tasks: []proto.TaskAssignment{ta}})
			var res *proto.TaskResult
			for _, m := range env.Take() {
				if r, ok := m.(*proto.TaskResult); ok {
					res = r
				}
			}
			if res == nil || len(res.Output) != len(ta.Params) {
				t.Fatal("no 64 KiB result was uploaded")
			}
			sameArray := &res.Output[0] == &ta.Params[0]
			if sameArray != (tc.name == "params") {
				t.Fatalf("the output shares the params' array: %v", sameArray)
			}
			if sameArray && len(env.released) != 0 || !sameArray && !env.gave(ta.Params) {
				t.Fatalf("the body's return gave back %d slices, want its params unless they are the output", len(env.released))
			}
			env.released = nil

			d.Settle()
			d.Settle()
			env.Advance(10 * time.Minute) // resent, unacknowledged
			if len(env.released) != 0 {
				t.Fatal("an unacknowledged output was given back")
			}
			if tc.fail {
				d.Plan.FailCommits(1)
			}
			sv.Receive("co", &proto.TaskResultAck{Task: ta.Task})
			if len(env.released) != 0 {
				t.Fatal("the output was given back while its log entry's delete was only staged")
			}
			d.Settle() // commits the deletes; their completions run at the next turn
			if len(env.released) != 0 {
				t.Fatal("the output was given back before its delete completed")
			}
			d.Settle()
			if tc.fail {
				if len(env.released) != 0 {
					t.Fatal("the output was given back though its log entry's delete failed")
				}
				return
			}
			if !env.gave(res.Output) {
				t.Fatalf("gave back %d slices, want the output once", len(env.released))
			}
			sv.Receive("co", &proto.TaskResultAck{Task: ta.Task})
			d.Settle()
			d.Settle()
			if len(env.released) != 1 {
				t.Fatalf("a second ack gave back %d slices in all, want the one", len(env.released))
			}
		})
	}
}
