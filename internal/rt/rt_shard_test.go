package rt

import (
	"testing"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/coordinator"
	"rpcv/internal/node"
	"rpcv/internal/proto"
	"rpcv/internal/server"
	"rpcv/internal/shard"
)

// TestShardRedirectOverTCP runs two single-coordinator rings on the
// real TCP runtime and hands the client a stale shard map whose ring
// assignment is swapped: the first submission hits the wrong ring, the
// ShardRedirect carries the newer map, and the call completes on the
// right one. This covers the wire path of every shard message end to
// end.
func TestShardRedirectOverTCP(t *testing.T) {
	rings := [][]proto.NodeID{{"coord-00"}, {"coord-01"}}
	truth := shard.New(2, rings, 0)
	// Stale version 1: same shard count, rings swapped, so the owner
	// shard index resolves to the wrong coordinator.
	stale := shard.New(1, [][]proto.NodeID{{"coord-01"}, {"coord-00"}}, 0)

	var rts []*Runtime
	newRT := func(id proto.NodeID, h node.Handler) *Runtime {
		rt, err := Start(Config{ID: id, ListenAddr: "127.0.0.1:0", Handler: h, Logf: quietLogf})
		if err != nil {
			t.Fatalf("start %s: %v", id, err)
		}
		rts = append(rts, rt)
		return rt
	}
	defer func() {
		for _, r := range rts {
			r.Close()
		}
	}()

	co0 := coordinator.New(coordinator.Config{Coordinators: rings[0], Shard: truth, HeartbeatPeriod: 200 * time.Millisecond})
	co1 := coordinator.New(coordinator.Config{Coordinators: rings[1], Shard: truth, HeartbeatPeriod: 200 * time.Millisecond})
	r0 := newRT("coord-00", co0)
	r1 := newRT("coord-01", co1)

	services := map[string]server.Service{
		"echo": func(p []byte) ([]byte, error) { return append([]byte(nil), p...), nil },
	}
	sv0 := server.New(server.Config{Coordinators: rings[0], HeartbeatPeriod: 200 * time.Millisecond, Services: services})
	sv1 := server.New(server.Config{Coordinators: rings[1], HeartbeatPeriod: 200 * time.Millisecond, Services: services})
	rs0 := newRT("server-000", sv0)
	rs1 := newRT("server-001", sv1)

	var got *proto.Result
	done := make(chan struct{})
	cli := client.New(client.Config{
		User:       "grid-user",
		Session:    1,
		Shard:      stale,
		PollPeriod: 200 * time.Millisecond,
		OnResult: func(res proto.Result, _ time.Time) {
			got = &res
			close(done)
		},
	})
	rc := newRT("client-00", cli)

	// Full mesh directory: connection-less sends need addresses.
	addrs := map[proto.NodeID]string{
		"coord-00": r0.Addr(), "coord-01": r1.Addr(),
		"server-000": rs0.Addr(), "server-001": rs1.Addr(),
		"client-00": rc.Addr(),
	}
	for _, r := range rts {
		for id, addr := range addrs {
			if id != r.ID() {
				r.SetPeer(id, addr)
			}
		}
	}

	owner := truth.Owner("grid-user", 1)
	wrong := stale.Ring(owner)[0]
	right := truth.Ring(owner)[0]
	if wrong == right {
		t.Fatalf("test setup broken: stale and true maps agree")
	}

	rc.Do(func() { cli.Submit("echo", []byte("hello shards"), 0, 0) })

	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatalf("result never arrived; client preferred %v", cli.Preferred())
	}
	if string(got.Output) != "hello shards" {
		t.Fatalf("wrong result %q", got.Output)
	}

	var st client.Stats
	var smapVersion uint64
	rc.Do(func() {
		st = cli.StatsNow()
		smapVersion = cli.ShardMap().Version()
	})
	if st.Redirects == 0 {
		t.Errorf("expected a redirect from the stale map, got none")
	}
	if smapVersion != 2 {
		t.Errorf("client still caches map version %d, want 2", smapVersion)
	}
	if st.Preferred != right {
		t.Errorf("client preferred %s, want owner ring coordinator %s", st.Preferred, right)
	}
}
