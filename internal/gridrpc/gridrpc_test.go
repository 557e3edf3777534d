package gridrpc

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rpcv/internal/coordinator"
	"rpcv/internal/grid"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/server"
)

// dialTest dials a session to g's coordinator and attaches it to g
// (loopback has no NAT learning).
func dialTest(t *testing.T, g *grid.Grid, cfg Config) *Session {
	t.Helper()
	cfg.Coordinators = map[string]string{"co": g.Node("co").Addr()}
	cfg.PollPeriod = 50 * time.Millisecond
	cfg.SuspicionTimeout = 500 * time.Millisecond
	s, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := g.Attach(s.ID(), s.Addr()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCallBlocking(t *testing.T) {
	g := testGrid(t, 2, map[string]server.Service{
		"rev": func(p []byte) ([]byte, error) {
			out := make([]byte, len(p))
			for i := range p {
				out[i] = p[len(p)-1-i]
			}
			return out, nil
		},
	})
	s := dialTest(t, g, Config{User: "alice", Session: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	out, err := s.Call(ctx, "rev", []byte("abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "fedcba" {
		t.Fatalf("out = %q", out)
	}
}

func TestCallAsyncProbeWait(t *testing.T) {
	g := testGrid(t, 2, map[string]server.Service{
		"id": func(p []byte) ([]byte, error) { return p, nil },
	})
	s := dialTest(t, g, Config{User: "bob", Session: 1})

	var handles []*Handle
	for i := 0; i < 5; i++ {
		h, err := s.CallAsync("id", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Handles carry distinct sequence IDs.
	seen := map[uint64]bool{}
	for _, h := range handles {
		if seen[h.Seq()] {
			t.Fatal("duplicate handle seq")
		}
		seen[h.Seq()] = true
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.WaitAll(ctx, handles); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if !h.Probe() {
			t.Fatalf("handle %d not complete after WaitAll", i)
		}
		out, err := h.Wait(ctx)
		if err != nil || len(out) != 1 || out[0] != byte(i) {
			t.Fatalf("handle %d result = %v,%v", i, out, err)
		}
	}
}

func TestRemoteErrorSurfaced(t *testing.T) {
	g := testGrid(t, 1, map[string]server.Service{
		"fail": func([]byte) ([]byte, error) { return nil, errors.New("service exploded") },
	})
	s := dialTest(t, g, Config{User: "carol", Session: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_, err := s.Call(ctx, "fail", nil)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestWaitHonoursContext(t *testing.T) {
	g := testGrid(t, 0, nil) // no servers: never completes
	s := dialTest(t, g, Config{User: "dave", Session: 1})
	h, err := s.CallAsync("noone", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := h.Wait(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestClosedSessionRejectsCalls(t *testing.T) {
	g := testGrid(t, 0, nil)
	s := dialTest(t, g, Config{User: "erin", Session: 1})
	s.Close()
	if _, err := s.CallAsync("x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(Config{}); err == nil {
		t.Fatal("Dial accepted empty coordinator list")
	}
}

// testGrid boots coordinator "co" and n servers of services, each on a
// WAL; dialTest adds sessions.
func testGrid(t *testing.T, n int, services map[string]server.Service) *grid.Grid {
	t.Helper()
	const beat = 50 * time.Millisecond
	const suspect = 500 * time.Millisecond

	g := grid.New(grid.Options{})
	t.Cleanup(g.Close)
	co := coordinator.New(coordinator.Config{
		Coordinators:     []proto.NodeID{"co"},
		HeartbeatTimeout: suspect,
		HeartbeatPeriod:  beat,
	})
	coDisk := filepath.Join(t.TempDir(), "co")
	if _, err := g.Start("co", func() rt.Config { return rt.Config{Handler: co, DiskDir: coDisk} }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		sv := server.New(server.Config{
			Coordinators:     []proto.NodeID{"co"},
			HeartbeatPeriod:  beat,
			SuspicionTimeout: suspect,
			Services:         services,
		})
		id := proto.NodeID(fmt.Sprintf("sv%d", i))
		svDisk := filepath.Join(t.TempDir(), string(id))
		if _, err := g.Start(id, func() rt.Config { return rt.Config{Handler: sv, DiskDir: svDisk} }); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestSessionIDCollisionRegression guards the session unique ID
// source. It used to be time.Now().UnixNano() verbatim, so two
// sessions dialled in the same instant — trivial with concurrent
// clients, guaranteed on coarse-clock platforms — collided and
// interleaved their (user, session, rpc) CallIDs. With entropy mixed
// in, a large concurrent batch must contain no duplicates.
func TestSessionIDCollisionRegression(t *testing.T) {
	const goroutines, per = 8, 2000
	ids := make(chan uint64, goroutines*per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ids <- newSessionID()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[uint64]bool, goroutines*per)
	for id := range ids {
		if id == 0 {
			t.Fatal("session ID 0 is reserved for 'derive one'")
		}
		if seen[id] {
			t.Fatalf("session ID collision: %d", id)
		}
		seen[id] = true
	}
}
