package rpcv

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"rpcv/internal/coordinator"
	"rpcv/internal/node/nodetest"
	"rpcv/internal/proto"
	"rpcv/internal/shared"
	"rpcv/internal/store"
)

const largePayload = 64 << 10

// largeCallGrid is a coordinator on a hand-driven env (nodetest)
// taking 64 KiB calls end to end. The payload slices are made once,
// outside anything measured: on the real runtime they are what the wire
// decoder allocated, and every call sharing them is exactly what the
// node.Disk ownership contract allows.
type largeCallGrid struct {
	co             *coordinator.Coordinator
	env            *nodetest.Env
	params, output []byte
	seq            proto.RPCSeq
}

func newLargeCallGrid() *largeCallGrid {
	g := &largeCallGrid{env: nodetest.NewEnv("co", store.NewMemory()), params: make([]byte, largePayload), output: make([]byte, largePayload)}
	for i := range g.params {
		g.params[i], g.output[i] = byte(i), byte(i>>3)
	}
	g.co = coordinator.New(coordinator.Config{
		Coordinators:    []proto.NodeID{"co"},
		HeartbeatPeriod: time.Hour, HeartbeatTimeout: 24 * time.Hour,
	})
	g.co.Start(g.env)
	return g
}

// call pushes one call through the coordinator's handlers: submit,
// assign, 64 KiB result, and the poll that collects it.
func (g *largeCallGrid) call(tb testing.TB) proto.CallID {
	g.seq++
	id := proto.CallID{User: "u0", Session: 1, Seq: g.seq}
	g.co.Receive("client-u0-1", &proto.Submit{Call: id, Service: "echo", Params: g.params})
	g.co.Receive("sv0", &proto.Heartbeat{From: "sv0", Role: proto.RoleServer, Capacity: 1, WantWork: true})
	g.env.Advance(time.Millisecond)
	var task *proto.TaskAssignment
	for _, m := range g.env.Take() {
		if ack, ok := m.(*proto.HeartbeatAck); ok && len(ack.Tasks) == 1 {
			task = &ack.Tasks[0]
		}
	}
	if task == nil || task.Task.Call != id {
		tb.Fatalf("call %s was not assigned", id)
	}
	g.co.Receive("sv0", &proto.TaskResult{From: "sv0", Task: task.Task, Output: g.output})
	g.co.Receive("client-u0-1", &proto.Poll{User: "u0", Session: 1, Ack: g.seq - 1})
	g.env.Advance(time.Millisecond)
	for _, m := range g.env.Take() {
		if res, ok := m.(*proto.Results); ok {
			if len(res.Results) != 1 || &res.Results[0].Output[0] != &g.output[0] {
				tb.Fatalf("poll for %s returned %d results", id, len(res.Results))
			}
			return id
		}
	}
	tb.Fatalf("poll for %s was not answered", id)
	return id
}

// TestLargeCallPersistCost guards the split layout and the stores'
// ownership contract together. A 64 KiB call through the coordinator's
// handlers — three persists, one poll — used to allocate about eight
// payloads (the whole record re-encoded on each persist, the store's
// copy of each encoding); now it allocates three small headers and the
// messages it sends: well under half a payload. And the job table and
// the disk hold one slice per payload between them, the caller's.
func TestLargeCallPersistCost(t *testing.T) {
	g := newLargeCallGrid()
	g.call(t) // warm: maps, the scheduler's queue, the encoder's scratch buffer
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var last proto.CallID
	for i := 0; i < calls; i++ {
		last = g.call(t)
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("coordinator allocates %.0f B per 64 KiB call (payloads: 2 x %d B)", perCall, largePayload)
	if limit := 0.5 * largePayload; perCall > limit {
		t.Fatalf("a 64 KiB call allocates %.0f B in the coordinator, over %.0f: a payload is being copied or re-encoded on persist", perCall, limit)
	}

	rec, ok := g.co.DB().Peek(last)
	if !ok || rec.State != proto.TaskFinished {
		t.Fatalf("call %s not finished in the job table", last)
	}
	for suffix, want := range map[string][]byte{"/p": g.params, "/o": g.output} {
		stored, ok := g.env.Disk().Read("coord/blob/" + last.String() + suffix)
		if !ok || len(stored) != len(want) || &stored[0] != &want[0] {
			t.Fatalf("blob %s: present %v, %d bytes, shares the caller's array %v", suffix, ok, len(stored), ok && &stored[0] == &want[0])
		}
	}
	if &rec.Params[0] != &g.params[0] || &rec.Output[0] != &g.output[0] {
		t.Fatal("the job table holds copies of the payloads, not the slices the disk holds")
	}
	if header, ok := g.env.Disk().Read("coord/job/" + last.String()); !ok || len(header) > 256 {
		t.Fatalf("header present %v, %d bytes: a payload is inline", ok, len(header))
	}
}

// BenchmarkLargeCallPersist is TestLargeCallPersistCost's path as a
// benchmark: run with -benchmem; B/op is what the coordinator allocates
// for one 64 KiB call, payload-independent once each payload is written
// once. The 64 B row is the inline path the split leaves alone.
func BenchmarkLargeCallPersist(b *testing.B) {
	for _, size := range []int{64, largePayload} {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			g := newLargeCallGrid()
			g.params, g.output = g.params[:size], g.output[:size]
			g.call(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.call(b)
			}
		})
	}
}

// echoFresh makes n echo calls of largePayload bytes (see echoEach).
func (g *tcpGrid) echoFresh(tb testing.TB, n int) { g.echoEach(tb, n, largePayload) }

// echoEach makes n echo calls of size bytes, one at a time (two in
// flight and a poll racing a pushed result delivers some results twice,
// a payload each time), each with a payload of its own — as a caller
// that keeps no buffer does — and checks every result byte for byte.
func (g *tcpGrid) echoEach(tb testing.TB, n, size int) {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 0; i < n; i++ {
		params := make([]byte, size)
		for j := range params {
			params[j] = byte(i + j)
		}
		if out, err := g.session.Call(ctx, "echo", params); err != nil || !bytes.Equal(out, params) {
			tb.Fatalf("echo %d: %d bytes back, %v", i, len(out), err)
		}
	}
}

// allocPerCall is allocPer for n fresh 64 KiB echo calls.
func (g *tcpGrid) allocPerCall(tb testing.TB, n int) float64 { return g.allocPer(tb, n, largePayload) }

// allocPer is what the whole process — client, coordinator, servers and
// the caller — allocates for one of n fresh echo calls of size bytes.
func (g *tcpGrid) allocPer(tb testing.TB, n, size int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g.echoEach(tb, n, size)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestLargeCallAllocatesOnePayloadPerHop is the end-to-end guard on
// real loopback TCP: a 64 KiB echo call costs the payloads it cannot
// avoid — one read per hop (client to coordinator to server and back:
// four), echo's own copy of its input, and the caller's fresh slice —
// and nothing payload-sized besides. Every log on the way keeps a small
// header and the slice it was handed: when the client's submit log and
// the server's result log each encoded the whole message this read 8.2.
func TestLargeCallAllocatesOnePayloadPerHop(t *testing.T) {
	if raceBuild {
		t.Skip("allocation guard: the race detector's sync.Pool drops buffers")
	}
	g := collectGrid(t, "", 1)
	g.echoFresh(t, 20) // warm: connections, frame buffers, pools, maps
	perCall := g.allocPerCall(t, 200)
	t.Logf("a 64 KiB echo call allocates %.0f B end to end = %.2f payloads", perCall, perCall/largePayload)
	if limit := 6.4 * largePayload; perCall > limit {
		t.Fatalf("a 64 KiB call allocates %.0f B end to end, over %.0f (6.4 payloads): some layer copies or re-encodes the payload", perCall, limit)
	}
}

// BenchmarkLargeCallAllocs is the guard as a figure: payloads/call, 6.0
// being the floor (see the test).
func BenchmarkLargeCallAllocs(b *testing.B) {
	const perIter = 200
	g := collectGrid(b, "", 1)
	g.echoFresh(b, 20)
	b.ResetTimer()
	perCall := g.allocPerCall(b, perIter*b.N)
	b.StopTimer()
	b.ReportMetric(perCall/largePayload, "payloads/call")
	b.ReportMetric(0, "ns/op") // an iteration is 200 calls; allocation is the point
}

// smallCallGrid is collectGrid with one-second beats and polls: a 64 B
// call takes about a millisecond, and timers that fire every 20 ms would
// add a tenth of what the call itself allocates.
func smallCallGrid(tb testing.TB) *tcpGrid {
	g := bootTCPGrid(tb, tcpGridSpec{user: "small", period: time.Second, timeout: 10 * time.Second,
		servers: 2, parallelism: 16, services: shared.BuiltinServices()})
	tb.Cleanup(g.close)
	return g
}

// smallCallLimit is about 10 % over what a 64 B echo call allocated
// end to end when the guard was set (TestSmallCallAllocations).
const smallCallLimit = 5100

// TestSmallCallAllocations is the guard for a 64 B call, whose bytes are
// nearly all per envelope: a call is seven of them and each costs its
// decode, its encode and what the runtime spends moving it. Moving costs
// nothing of its own — no closure per received message, send queues
// that keep their arrays, disk keys without fmt, no closure or channel
// per DoOn — and the pull a server sends behind each result is not
// answered with an empty HeartbeatAck when a TaskResultAck has just
// gone to it. Before, a call read about 6.2 KB here.
func TestSmallCallAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("allocation guard: the race detector's sync.Pool drops buffers")
	}
	g := smallCallGrid(t)
	g.echoEach(t, 200, 64) // warm: connections, queue arrays, pools, maps
	perCall := g.allocPer(t, 2000, 64)
	t.Logf("a 64 B echo call allocates %.0f B end to end", perCall)
	if perCall > smallCallLimit {
		t.Fatalf("a 64 B call allocates %.0f B end to end, over %d: the runtime pays per envelope again, or an envelope came back", perCall, smallCallLimit)
	}
}

// BenchmarkSmallCallAllocs is the guard as a figure: B/call end to end.
func BenchmarkSmallCallAllocs(b *testing.B) {
	const perIter = 1000
	g := smallCallGrid(b)
	g.echoEach(b, 200, 64)
	b.ResetTimer()
	perCall := g.allocPer(b, perIter*b.N, 64)
	b.StopTimer()
	b.ReportMetric(perCall, "B/call")
	b.ReportMetric(0, "ns/op") // an iteration is 1000 calls; allocation is the point
}
