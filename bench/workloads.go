package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rpcv/internal/shared"
)

// sleepParam is churn's service time: long enough that four
// one-at-a-time servers, not the coordinator, bound throughput.
const sleepParam = "20ms"

// workload is one set of inputs. Names are final: BENCHMARK.json, the
// baseline and -compare key on them.
type workload struct {
	name     string
	why      string
	grid     gridSpec
	service  string
	payload  int     // echo parameter bytes (sleep sends sleepParam)
	openRate float64 // open loop: Poisson calls/s per session; 0 = closed loop
	window   int     // closed loop: calls in flight per session
	faults   bool    // run the seeded kill/restart schedule
}

// echoGrid is the grid of every echo workload: 2 servers running 4
// tasks at a time, the coordinator on the WAL or on the memory store.
func echoGrid(durable bool) gridSpec {
	return gridSpec{servers: 2, parallelism: 4, services: shared.BuiltinServices(), durable: durable}
}

// workloads lists every workload of a whole set. The first four are the
// issue's, under its names. On this box an echo workload on the WAL
// reports the shared disk's mood — the closed loops as capacity (1458
// and then 900 calls/s a quarter of an hour apart), steady as latency
// (p80 a fifth up in one ten-seed sweep of four) — so no bound the
// contract allows holds them and BENCHMARK.json cannot name them. heavy
// and large stand in for them there: the same payloads at an offered
// rate on the memory store, so the job table, and with it the work per
// call, grows the same way in every run. BENCHMARK.json names heavy,
// large and churn; -repeat and -compare judge all six and call a metric
// whose spread is wider than its bound unresolved. See README, "Noise".
func workloads() []workload {
	wal, mem := echoGrid(true), echoGrid(false)
	return []workload{
		{
			name: "steady", grid: wal, service: "echo", payload: 64, openRate: 150,
			why: "open loop, 300 calls/s of 64 B echo on the WAL, a third of capacity: what an interactive user sees; only pull/poll timer changes should move its latency",
		},
		{
			name: "saturate", grid: wal, service: "echo", payload: 64, window: 96,
			why: "closed loop, 192 calls of 64 B in flight on the WAL: capacity; three synchronous one-record fsyncs per call on the coordinator's loop, job-table scans on every poll",
		},
		{
			name: "bulk", grid: wal, service: "echo", payload: 64 << 10, window: 8,
			why: "closed loop, 16 calls of 64 KiB in flight on the WAL: the same layers paid per byte; params re-encoded on each of three persists, snapshots rewriting the whole index",
		},
		{
			name: "churn", service: "sleep", window: 16, faults: true,
			grid: gridSpec{servers: 4, parallelism: 1, services: shared.BuiltinServices(), durable: true},
			why:  "20 ms sleep calls while servers are killed in turn and the coordinator restarts from its WAL: the paper's volatile nodes; exercises the fault paths",
		},
		{
			name: "heavy", grid: mem, service: "echo", payload: 64, openRate: 600,
			why: "open loop, 1200 calls/s of 64 B echo, coordinator on the memory store: per-call cost as the job table grows to 26 k; same table in every run",
		},
		{
			name: "large", grid: mem, service: "echo", payload: 64 << 10, openRate: 40,
			why: "open loop, 80 calls/s of 64 KiB params and results, memory store: the proto/rt layers paid per byte instead of per message, and what a call retains",
		},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads() {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// faultEvent is one step of churn's schedule, at an offset from the
// start of warm-up. server < 0 addresses the coordinator.
type faultEvent struct {
	at     time.Duration
	server int
	kill   bool // false: restart
}

const (
	serverKillEvery  = 1500 * time.Millisecond
	serverKillJitter = 300 * time.Millisecond // each kill lands within +-jitter of its slot
	serverDowntime   = 400 * time.Millisecond
	// The transport redials a dead peer with a jittered backoff that
	// doubles from 50 ms: a peer that comes back after 1 s is found
	// within 2.2 s, after 2 s only within 4.4 s — too close to
	// callTimeout for a workload on which no call may fail.
	maxCoDowntime = time.Second
)

// coDowntime is how long the coordinator stays down: 1 s, shortened on
// windows too short to hold it and the recovery after it.
func coDowntime(window time.Duration) time.Duration {
	if d := window / 5; d < maxCoDowntime {
		return d
	}
	return maxCoDowntime
}

// faultSchedule builds churn's seeded schedule over warmup+window:
// every 1.5 s, give or take a seeded 0.3 s, the next server
// (round-robin) is killed and comes back serverDowntime later on a new
// port; halfway through the window the coordinator is killed and
// restarted coDowntime later from its WAL on the same port. The seed
// moves every kill but not their number, so two seeds put the same
// fault load on the grid. Every kill has its restart, so the drain
// after the window always finds the whole grid up.
func faultSchedule(seed int64, servers int, warmup, window time.Duration) []faultEvent {
	rng := subSeed(seed, streamFaults, 0)
	var evs []faultEvent
	end := warmup + window
	for k := 1; time.Duration(k)*serverKillEvery+serverKillJitter < end; k++ {
		t := time.Duration(k)*serverKillEvery - serverKillJitter + time.Duration(rng.Int63n(int64(2*serverKillJitter)))
		evs = append(evs,
			faultEvent{at: t, server: (k - 1) % servers, kill: true},
			faultEvent{at: t + serverDowntime, server: (k - 1) % servers})
	}
	coKill := warmup + window/2
	evs = append(evs,
		faultEvent{at: coKill, server: -1, kill: true},
		faultEvent{at: coKill + coDowntime(window), server: -1})
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

// runFaults applies the schedule in order; restarts still due when ctx
// ends are applied at once so the grid is whole for the drain.
func runFaults(ctx context.Context, g *grid, start time.Time, evs []faultEvent) error {
	for _, ev := range evs {
		if !sleepUntil(ctx, start.Add(ev.at)) && ev.kill {
			continue
		}
		var err error
		switch {
		case ev.server < 0 && ev.kill:
			g.killCoordinator()
		case ev.server < 0:
			err = g.restartCoordinator()
		case ev.kill:
			g.killServer(ev.server)
		default:
			err = g.restartServer(ev.server)
		}
		if err != nil {
			return fmt.Errorf("fault schedule at %v: %w", ev.at, err)
		}
	}
	return nil
}
