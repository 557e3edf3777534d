package rpcv

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpcv/internal/coordinator"
	"rpcv/internal/db"
	"rpcv/internal/grid"
	"rpcv/internal/gridrpc"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/server"
	"rpcv/internal/shared"
	"rpcv/internal/store"
)

// A server runs service bodies off its event loop (internal/server), so
// a busy server keeps beating and its beats and syncs say what it is
// running. These tests hold that on real loopback TCP at the
// benchmark's settings — a 20 ms beat and a 250 ms suspicion timeout,
// which any real service outlasts. When the body ran on the loop, each
// of them failed with the figures its comment gives.

const (
	busyBeat    = 20 * time.Millisecond
	busyTimeout = 250 * time.Millisecond
)

// tcpGrid is one coordinator, some servers and one gridrpc session on
// loopback TCP.
type tcpGrid struct {
	grid    *grid.Grid
	co      *coordinator.Coordinator
	rco     *rt.Runtime
	servers []*server.Server // servers[i] runs as serverID(i)
	session *gridrpc.Session
	coStore store.Store // the coordinator's engine, for reading its keys

	mu       sync.Mutex
	suspects []string // every log line of any node that mentions a suspicion
}

type tcpGridSpec struct {
	user        string
	period      time.Duration // server beat = client poll
	timeout     time.Duration // every suspicion timeout
	servers     int
	parallelism int
	services    map[string]server.Service

	// The coordinator's store (collect_test.go): a WAL directory, empty
	// for the memory store.
	coDisk string
	// The coordinator's database cost per statement (zero: free) and
	// its observer (nil: none).
	dbCost time.Duration
	coObs  *obs.Observer
}

// logf keeps the nodes quiet but remembers suspicions.
func (g *tcpGrid) logf(format string, args ...any) {
	if line := fmt.Sprintf(format, args...); strings.Contains(line, "suspect") {
		g.mu.Lock()
		g.suspects = append(g.suspects, line)
		g.mu.Unlock()
	}
}

func (g *tcpGrid) suspicions() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.suspects...)
}

// bootTCPGrid starts the grid; close stops it (tests that do not stop
// it themselves register it as a cleanup).
func bootTCPGrid(tb testing.TB, spec tcpGridSpec) *tcpGrid {
	tb.Helper()
	g := &tcpGrid{}
	g.grid = grid.New(grid.Options{Logf: g.logf})
	g.co = coordinator.New(coordinator.Config{
		Coordinators:     []proto.NodeID{"co"},
		HeartbeatPeriod:  spec.period,
		HeartbeatTimeout: spec.timeout,
		DBCost:           db.CostModel{PerOp: spec.dbCost},
		Obs:              spec.coObs,
	})
	var err error
	g.rco, err = g.grid.Start("co", func() rt.Config {
		return rt.Config{Handler: g.co, DiskDir: spec.coDisk,
			WrapStore: func(s store.Store) store.Store { g.coStore = s; return s }}
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < spec.servers; i++ {
		sv := server.New(server.Config{
			Coordinators:     []proto.NodeID{"co"},
			HeartbeatPeriod:  spec.period,
			SuspicionTimeout: spec.timeout,
			Parallelism:      spec.parallelism,
			Services:         spec.services,
		})
		if _, err := g.grid.Start(serverID(i), func() rt.Config { return rt.Config{Handler: sv} }); err != nil {
			g.close()
			tb.Fatal(err)
		}
		g.servers = append(g.servers, sv)
	}
	g.session, err = gridrpc.Dial(gridrpc.Config{
		User: spec.user, Session: 1,
		Coordinators:     map[string]string{"co": g.rco.Addr()},
		PollPeriod:       spec.period,
		SuspicionTimeout: spec.timeout,
	})
	if err == nil {
		err = g.grid.Attach(g.session.ID(), g.session.Addr())
	}
	if err != nil {
		g.close()
		tb.Fatal(err)
	}
	return g
}

func serverID(i int) proto.NodeID { return proto.NodeID(fmt.Sprintf("sv%d", i)) }

func (g *tcpGrid) close() {
	if g.session != nil {
		g.session.Close()
	}
	g.grid.Close()
}

// serverStats sums the servers' counters.
func (g *tcpGrid) serverStats() (st server.Stats) {
	for i, sv := range g.servers {
		g.grid.Node(serverID(i)).Do(func() {
			one := sv.StatsNow()
			st.Executed += one.Executed
			st.Dedup += one.Dedup
		})
	}
	return st
}

func (g *tcpGrid) coordinatorStats() (st coordinator.Stats) {
	g.rco.Do(func() { st = g.co.StatsNow() })
	return st
}

// callAll makes n calls of service(param), at most inFlight at a time,
// and fails the test on the first that does not answer "ok".
func (g *tcpGrid) callAll(tb testing.TB, n, inFlight int, service, param string) {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var next atomic.Int64
	errs := make(chan error, inFlight)
	for w := 0; w < inFlight; w++ {
		go func() {
			for next.Add(1) <= int64(n) {
				if out, err := g.session.Call(ctx, service, []byte(param)); err != nil || string(out) != "ok" {
					errs <- fmt.Errorf("%s %s: %q, %v", service, param, out, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < inFlight; w++ {
		if err := <-errs; err != nil {
			tb.Fatal(err)
		}
	}
}

// TestBusyServerIsNeitherSuspectedNorReissued: with no fault anywhere,
// every call executes exactly once and nobody is suspected. On-loop, (a)
// the one 600 ms call was suspected after 250 ms of silence, rescheduled
// and executed twice; (b) the 200 calls executed 235 times, with 57
// reschedules and 54 duplicate results: a beat that fired between two
// bodies advertised a free slot and an empty running set while
// assignments sat in the loop's mailbox, and every 12th one, a sync,
// had the coordinator re-queue them all.
func TestBusyServerIsNeitherSuspectedNorReissued(t *testing.T) {
	g := bootTCPGrid(t, tcpGridSpec{user: "busy", period: busyBeat, timeout: busyTimeout,
		servers: 2, parallelism: 1, services: shared.BuiltinServices()})
	defer g.close()

	check := func(what string, executed int) {
		t.Helper()
		sv, co := g.serverStats(), g.coordinatorStats()
		if sv.Executed != executed || sv.Dedup != 0 || co.Rescheduled != 0 || co.DupResults != 0 {
			t.Errorf("%s: executed %d (want %d), server dedups %d, rescheduled %d, duplicate results %d; want none of the last three",
				what, sv.Executed, executed, sv.Dedup, co.Rescheduled, co.DupResults)
		}
		if s := g.suspicions(); len(s) != 0 {
			t.Errorf("%s: suspicions on a healthy grid: %q", what, s)
		}
		var suspected []proto.NodeID
		g.rco.Do(func() { suspected = g.co.SuspectedServers() })
		if len(suspected) != 0 {
			t.Errorf("%s: coordinator suspects %v", what, suspected)
		}
	}

	g.callAll(t, 1, 1, "sleep", "600ms")
	check("one 600 ms call on a 250 ms timeout", 1)
	g.callAll(t, 200, 16, "sleep", "20ms")
	check("200 x 20 ms at 16 in flight", 201)
}

// TestParallelismBoundsConcurrentBodies: Parallelism is the number of
// bodies running at once — no fewer (on-loop it was silently 1 for
// every real service: 8 x 100 ms took 829 ms) and no more.
func TestParallelismBoundsConcurrentBodies(t *testing.T) {
	var running, highWater atomic.Int64
	services := shared.BuiltinServices()
	services["gauge"] = func([]byte) ([]byte, error) {
		n := running.Add(1)
		for {
			h := highWater.Load()
			if n <= h || highWater.CompareAndSwap(h, n) {
				break
			}
		}
		time.Sleep(30 * time.Millisecond)
		running.Add(-1)
		return []byte("ok"), nil
	}
	g := bootTCPGrid(t, tcpGridSpec{user: "par", period: busyBeat, timeout: busyTimeout,
		servers: 1, parallelism: 4, services: services})
	defer g.close()

	g.callAll(t, 16, 16, "gauge", "")
	if h := highWater.Load(); h != 4 {
		t.Errorf("at most %d bodies ran at once under Parallelism 4 with 16 calls in flight, want exactly 4", h)
	}
	start := time.Now()
	g.callAll(t, 8, 8, "sleep", "100ms")
	if d := time.Since(start); d >= 400*time.Millisecond {
		t.Errorf("8 x sleep 100ms on 4 slots took %v, want two rounds of 100 ms (under 400 ms)", d)
	}
	if sv := g.serverStats(); sv.Executed != 24 {
		t.Errorf("executed %d bodies for 24 calls", sv.Executed)
	}
}

// TestCloseDoesNotWaitForARunningBody: closing a server's runtime is a
// crash, and a crash does not wait for a service that may run for an
// hour; the body's goroutine ends when the body does and leaves nothing
// behind. On-loop, Close queued behind the body.
func TestCloseDoesNotWaitForARunningBody(t *testing.T) {
	baseline := runtime.NumGoroutine()
	entered, release := make(chan struct{}), make(chan struct{})
	services := map[string]server.Service{"hold": func([]byte) ([]byte, error) {
		close(entered)
		<-release
		return []byte("ok"), nil
	}}
	g := bootTCPGrid(t, tcpGridSpec{user: "close", period: busyBeat, timeout: busyTimeout,
		servers: 1, parallelism: 1, services: services})
	defer g.close()
	releaseBody := sync.OnceFunc(func() { close(release) })
	defer releaseBody() // before g.close: a Close that waits for the body must not hang the test
	if _, err := g.session.CallAsync("hold", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the service never started")
	}

	closed := make(chan struct{})
	start := time.Now()
	go func() { g.grid.Kill(serverID(0)); close(closed) }()
	select {
	case <-closed:
		t.Logf("Close returned in %v with the body still running", time.Since(start))
	case <-time.After(500 * time.Millisecond):
		t.Fatal("rt.Close waits for the running service body")
	}

	releaseBody()
	g.close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the grid existed; the body's goroutine or its poster leaked:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPanickingServiceFailsItsCallNotItsServer: a body that panics is
// one failed call. Unrecovered it killed the server process, and
// at-least-once then fed the same call to the next server.
func TestPanickingServiceFailsItsCallNotItsServer(t *testing.T) {
	services := shared.BuiltinServices()
	services["poison"] = func([]byte) ([]byte, error) { panic("bad input") }
	g := bootTCPGrid(t, tcpGridSpec{user: "poison", period: busyBeat, timeout: busyTimeout,
		servers: 2, parallelism: 1, services: services})
	defer g.close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := g.session.Call(ctx, "poison", nil)
	var remote *gridrpc.RemoteError
	if !errors.As(err, &remote) || remote.Msg != "service panicked: bad input" || out != nil {
		t.Fatalf("poison call: %q, %v; want the panic as the call's remote error", out, err)
	}
	if sv := g.serverStats(); sv.Executed != 1 {
		t.Fatalf("poison call executed %d times, want 1", sv.Executed)
	}
	if out, err := g.session.Call(ctx, "echo", []byte("ping")); err != nil || string(out) != "ping" {
		t.Fatalf("echo after the panic: %q, %v", out, err)
	}
	// Both servers are still there: two calls at once on two
	// one-at-a-time servers take one each.
	executed := func() (n [2]int) {
		for i, sv := range g.servers {
			g.grid.Node(serverID(i)).Do(func() { n[i] = sv.StatsNow().Executed })
		}
		return n
	}
	before := executed()
	g.callAll(t, 2, 2, "sleep", "100ms")
	if after := executed(); after[0] != before[0]+1 || after[1] != before[1]+1 {
		t.Errorf("two calls at once after the panic: executed per server %v, was %v; want one more on each", after, before)
	}
	if co := g.coordinatorStats(); co.Rescheduled != 0 {
		t.Errorf("rescheduled %d calls", co.Rescheduled)
	}
}
