package experiments

import (
	"fmt"
	"sync"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/coordinator"
	"rpcv/internal/db"
	"rpcv/internal/metrics"
	"rpcv/internal/msglog"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/server"
	"rpcv/internal/shard"
)

// LoopsScale measures what the coordinator's per-core event loops
// (rt.Config.Loops) buy: one sustained-submission workload on real
// loopback TCP against a coordinator running 1, 2 and 4 loops. The
// coordinator is made deliberately DB-bound (each submission queues
// behind the modelled database, a serial resource), so the speedup
// isolates the thing the runtime actually multiplies: one independent
// handler partition — with its own DB serial resource — per loop. The
// delivered column proves equality: every submission acknowledged at
// every loop count.
//
// Unlike the simulated figures this one runs on the wall clock and real
// sockets. It is the only in-tree check of the multi-loop speedup until
// the repository benchmark (bench/) grows a load curve per loop count.
func LoopsScale(opts Options) Result {
	calls := 600
	if opts.Quick {
		calls = 240
	}
	table := metrics.NewTable(
		"Loops scaling: coordinator event loops vs sustained submit throughput (real TCP loopback, 8 clients, DB-bound coordinator)",
		"loops", "submits/s", "scale", "p50-submit", "p99-submit", "delivered")
	var base float64
	for _, n := range loopsSweep(opts.Loops) {
		r := loopsRun(n, calls)
		scale := "1.0x"
		if base == 0 {
			base = r.throughput
		} else if base > 0 {
			scale = fmt.Sprintf("%.1fx", r.throughput/base)
		}
		table.AddRow(n, r.throughput, scale, r.lat.P50(), r.lat.P99(),
			fmt.Sprintf("%d/%d", r.acked, r.target))
	}
	return Result{Name: "loops-scale", Tables: []*metrics.Table{table}}
}

// loopsSweep returns the loop counts to run. cap (from rpcv-bench
// -loops) drops sweep points a small box cannot host; the single-loop
// baseline always runs.
func loopsSweep(cap int) []int {
	out := []int{1}
	for _, n := range []int{2, 4} {
		if cap <= 0 || n <= cap {
			out = append(out, n)
		}
	}
	return out
}

// loopsRunResult carries one loop count's measurements.
type loopsRunResult struct {
	throughput    float64
	lat           metrics.Histogram
	acked, target int
}

// loopsRun drives one sustained-submission run against a coordinator
// hosting the given number of per-core event loops, with no fault load:
// this measures clean scaling.
//
// Client (user, session) pairs are chosen so sessions spread evenly
// over the coordinator's loops — the selection uses the very same
// shard.LoopMap construction the runtime pins sessions with, so the
// workload exercises every handler partition instead of accidentally
// hashing onto one.
func loopsRun(loops, calls int) loopsRunResult {
	const (
		nClients = 8
		nServers = 2
		inflight = 8 // per-client sustained submission window
		beat     = 25 * time.Millisecond
		suspect  = 250 * time.Millisecond
	)
	quiet := func(string, ...any) {}

	co := coordinator.New(coordinator.Config{
		Coordinators:     []proto.NodeID{"co"},
		HeartbeatPeriod:  beat,
		HeartbeatTimeout: suspect,
		// DB-bound on purpose: with sub-millisecond transport, a fat
		// per-statement cost makes the serialized database the
		// bottleneck the loop count multiplies.
		DBCost: db.CostModel{PerOp: 200 * time.Microsecond},
	})
	rco, err := rt.Start(rt.Config{ID: "co", ListenAddr: "127.0.0.1:0",
		Handler: co, Logf: quiet, Loops: loops})
	if err != nil {
		panic(fmt.Sprintf("loops-scale: coordinator: %v", err))
	}
	dir := rt.Directory{"co": rco.Addr()}

	services := map[string]server.Service{
		"noop": func([]byte) ([]byte, error) { return nil, nil },
	}
	rsvs := make([]*rt.Runtime, nServers)
	for i := range rsvs {
		id := proto.NodeID(fmt.Sprintf("sv%d", i))
		rsv, err := rt.Start(rt.Config{ID: id, ListenAddr: "127.0.0.1:0",
			Handler: server.New(server.Config{
				Coordinators:     []proto.NodeID{"co"},
				HeartbeatPeriod:  beat,
				SuspicionTimeout: suspect,
				Services:         services,
			}),
			Directory: dir, Logf: quiet})
		if err != nil {
			panic(fmt.Sprintf("loops-scale: server: %v", err))
		}
		rco.SetPeer(id, rsv.Addr())
		rsvs[i] = rsv
	}

	// Pick (user, session) pairs that cover every loop evenly. The
	// construction is deterministic given the loop count alone, so this
	// predicts the runtime's pinning exactly.
	lm := shard.NewLoopMap(loops)
	type cliID struct {
		user    proto.UserID
		session proto.SessionID
	}
	picked := make([]cliID, 0, nClients)
	counts := make([]int, loops)
	for i := 0; len(picked) < nClients; i++ {
		u := proto.UserID(fmt.Sprintf("u%03d", i))
		s := proto.SessionID(i + 1)
		if l := lm.Owner(u, s); counts[l] < nClients/loops {
			counts[l]++
			picked = append(picked, cliID{u, s})
		}
	}

	var (
		res     loopsRunResult
		measMu  sync.Mutex
		acked   int
		lastAck time.Time
		done    = make(chan struct{})
		once    sync.Once
	)
	perClient := calls / nClients
	res.target = perClient * nClients
	start := time.Now()

	rclis := make([]*rt.Runtime, nClients)
	for i := 0; i < nClients; i++ {
		submitted := 0
		var cli *client.Client
		cli = client.New(client.Config{
			User:             picked[i].user,
			Session:          picked[i].session,
			Coordinators:     []proto.NodeID{"co"},
			PollPeriod:       beat,
			SuspicionTimeout: suspect,
			Logging:          msglog.NonBlockingPessimistic,
			Disk:             msglog.InstantDisk(),
			OnSubmitComplete: func(_ proto.RPCSeq, issued, completed time.Time) {
				measMu.Lock()
				res.lat.Add(completed.Sub(issued))
				acked++
				lastAck = completed
				fin := acked >= res.target
				measMu.Unlock()
				if fin {
					once.Do(func() { close(done) })
				}
				if submitted < perClient {
					submitted++
					cli.Submit("noop", nil, 0, 0)
				}
			},
		})
		id := proto.NodeID(fmt.Sprintf("cli%d", i))
		rcli, err := rt.Start(rt.Config{ID: id, ListenAddr: "127.0.0.1:0",
			Handler: cli, Directory: dir, Logf: quiet})
		if err != nil {
			panic(fmt.Sprintf("loops-scale: client: %v", err))
		}
		rco.SetPeer(id, rcli.Addr())
		rclis[i] = rcli
		rcli.Do(func() {
			for j := 0; j < inflight && submitted < perClient; j++ {
				submitted++
				cli.Submit("noop", nil, 0, 0)
			}
		})
	}

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		// Watchdog: report whatever completed instead of hanging CI.
	}

	measMu.Lock()
	res.acked = acked
	if acked > 0 && lastAck.After(start) {
		res.throughput = float64(acked) / lastAck.Sub(start).Seconds()
	}
	measMu.Unlock()

	for _, rcli := range rclis {
		rcli.Close()
	}
	rco.Close()
	for _, rsv := range rsvs {
		rsv.Close()
	}
	return res
}
