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
	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/server"
)

func quiet(string, ...any) {}

// dialTest dials a session and registers its address with the
// coordinator runtime (loopback has no NAT learning).
func dialTest(t *testing.T, coords map[string]string, cfg Config) *Session {
	t.Helper()
	cfg.Coordinators = coords
	cfg.PollPeriod = 50 * time.Millisecond
	cfg.SuspicionTimeout = 500 * time.Millisecond
	s, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestCallBlocking(t *testing.T) {
	coords, register := gridWithRegistrar(t, 2, map[string]server.Service{
		"rev": func(p []byte) ([]byte, error) {
			out := make([]byte, len(p))
			for i := range p {
				out[i] = p[len(p)-1-i]
			}
			return out, nil
		},
	})
	s := dialTest(t, coords, Config{User: "alice", Session: 1})
	register(s)

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
	coords, register := gridWithRegistrar(t, 2, map[string]server.Service{
		"id": func(p []byte) ([]byte, error) { return p, nil },
	})
	s := dialTest(t, coords, Config{User: "bob", Session: 1})
	register(s)

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
	coords, register := gridWithRegistrar(t, 1, map[string]server.Service{
		"fail": func([]byte) ([]byte, error) { return nil, errors.New("service exploded") },
	})
	s := dialTest(t, coords, Config{User: "carol", Session: 1})
	register(s)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_, err := s.Call(ctx, "fail", nil)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestWaitHonoursContext(t *testing.T) {
	coords, register := gridWithRegistrar(t, 0, nil) // no servers: never completes
	s := dialTest(t, coords, Config{User: "dave", Session: 1})
	register(s)
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
	coords, register := gridWithRegistrar(t, 0, nil)
	s := dialTest(t, coords, Config{User: "erin", Session: 1})
	register(s)
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

// gridWithRegistrar is grid() plus a callback registering a session's
// listen address with the coordinator runtime.
func gridWithRegistrar(t *testing.T, n int, services map[string]server.Service) (map[string]string, func(*Session)) {
	t.Helper()
	const beat = 50 * time.Millisecond
	const suspect = 500 * time.Millisecond

	co := coordinator.New(coordinator.Config{
		Coordinators:     []proto.NodeID{"co"},
		HeartbeatTimeout: suspect,
		HeartbeatPeriod:  beat,
	})
	rco, err := rt.Start(rt.Config{ID: "co", ListenAddr: "127.0.0.1:0", Handler: co,
		DiskDir: filepath.Join(t.TempDir(), "co"), Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rco.Close)

	dir := rt.Directory{"co": rco.Addr()}
	for i := 0; i < n; i++ {
		sv := server.New(server.Config{
			Coordinators:     []proto.NodeID{"co"},
			HeartbeatPeriod:  beat,
			SuspicionTimeout: suspect,
			Services:         services,
		})
		id := proto.NodeID(fmt.Sprintf("sv%d", i))
		rsv, err := rt.Start(rt.Config{ID: id, ListenAddr: "127.0.0.1:0", Handler: sv,
			Directory: dir, DiskDir: filepath.Join(t.TempDir(), string(id)), Logf: quiet})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rsv.Close)
		rco.SetPeer(id, rsv.Addr())
	}
	register := func(s *Session) {
		rco.SetPeer(proto.NodeID(fmt.Sprintf("client-%s-%d", s.cfg.User, s.cfg.Session)), s.Addr())
	}
	return map[string]string{"co": rco.Addr()}, register
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
