package rpcv

import (
	"context"
	"slices"
	"testing"
	"time"

	"rpcv/internal/gridrpc"
	"rpcv/internal/shared"
)

// idlePeriod is the idle grid's one timer: the server's work pull and
// the session's result poll both beat at it. It is long on purpose — a
// call that waits for either beat shows.
const idlePeriod = 200 * time.Millisecond

// idleGrid boots one coordinator, one server and one gridrpc session on
// loopback TCP, and makes one call so that the server has pulled and
// the session has polled at least once.
func idleGrid(tb testing.TB) *gridrpc.Session {
	tb.Helper()
	g := bootTCPGrid(tb, tcpGridSpec{user: "idle", period: idlePeriod, timeout: 10 * idlePeriod,
		servers: 1, parallelism: 1, services: shared.BuiltinServices()})
	tb.Cleanup(g.close)
	idleCall(tb, g.session)
	return g.session
}

// idleCall makes one blocking echo call and returns how long it took.
func idleCall(tb testing.TB, s *gridrpc.Session) time.Duration {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	out, err := s.Call(ctx, "echo", []byte("ping"))
	if err != nil || string(out) != "ping" {
		tb.Fatalf("echo call: %q, %v", out, err)
	}
	return time.Since(start)
}

// TestIdleCallLatencyHasNoTimerInIt guards the late replies
// (internal/coordinator): on an idle grid a call costs its work and four
// loopback hops, whatever the periods are. When a job waited for the
// server's next pull and its result for the session's next poll, a call
// cost one period on average (two waits of half a period each): the
// median here was about 200 ms.
func TestIdleCallLatencyHasNoTimerInIt(t *testing.T) {
	s := idleGrid(t)
	lat := make([]time.Duration, 50)
	for i := range lat {
		lat[i] = idleCall(t, s)
	}
	slices.Sort(lat)
	median := lat[len(lat)/2]
	t.Logf("idle call: median %v, max %v at a %v period", median, lat[len(lat)-1], idlePeriod)
	if limit := idlePeriod / 10; median >= limit {
		t.Fatalf("median idle call takes %v at a %v pull/poll period, want under %v: a timer is back on the call path",
			median, idlePeriod, limit)
	}
}
