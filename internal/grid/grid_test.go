package grid

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"rpcv/internal/coordinator"
	"rpcv/internal/gridrpc"
	"rpcv/internal/netmodel"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/server"
	"rpcv/internal/shared"
)

// A coordinator restarted onto a new port is reached by the server the
// grid re-points at it, and reaches a session relaunched against it once
// the session is attached again. In proxied mode the server still dials
// it through their link's proxy, which obeys the rules. Close after a
// Kill leaves nothing running, proxies included.
func TestRestartOntoANewPort(t *testing.T) {
	const beat, suspect = 25 * time.Millisecond, 250 * time.Millisecond
	for _, proxied := range []bool{false, true} {
		t.Run(fmt.Sprint("proxied=", proxied), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			opts := Options{Logf: t.Logf}
			if proxied {
				opts.Rules = netmodel.NewRules()
			}
			g := New(opts)
			t.Cleanup(g.Close)
			coDisk := filepath.Join(t.TempDir(), "co")
			if _, err := g.Start("co", func() rt.Config {
				return rt.Config{DiskDir: coDisk, Handler: coordinator.New(coordinator.Config{
					Coordinators: []proto.NodeID{"co"}, HeartbeatPeriod: beat, HeartbeatTimeout: suspect})}
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Start("sv0", func() rt.Config {
				return rt.Config{Handler: server.New(server.Config{Coordinators: []proto.NodeID{"co"},
					HeartbeatPeriod: beat, SuspicionTimeout: suspect, Services: shared.BuiltinServices()})}
			}); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			call := func(params string) {
				t.Helper()
				s, err := gridrpc.Dial(gridrpc.Config{User: "u", Session: 1,
					Coordinators: map[string]string{"co": g.Node("co").Addr()},
					PollPeriod:   beat, SuspicionTimeout: suspect})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if err := g.Attach(s.ID(), s.Addr()); err != nil {
					t.Fatal(err)
				}
				if out, err := s.Call(ctx, "echo", []byte(params)); err != nil || string(out) != params {
					t.Fatalf("echo %q: %q, %v", params, out, err)
				}
			}
			call("before")
			old := g.Node("co").Addr()
			if err := g.Restart("co"); err != nil {
				t.Fatal(err)
			}
			if g.Node("co").Addr() == old {
				t.Fatalf("the coordinator came back at %s; the test needs a new port", old)
			}
			const blocked = 300 * time.Millisecond
			if proxied { // sv0 still dials co through its link's proxy: no result before the heal
				opts.Rules.BlockLink("sv0", "co")
				time.AfterFunc(blocked, func() { opts.Rules.HealLink("sv0", "co") })
			}
			start := time.Now()
			call("after")
			if proxied && time.Since(start) < blocked {
				t.Fatalf("a call completed in %v through the blocked link sv0 -> co", time.Since(start))
			}

			g.Kill("sv0")
			g.Close()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after Close, %d before the grid:\n%s",
						runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
