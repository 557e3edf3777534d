package rpcv

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"rpcv/internal/coordinator"
	"rpcv/internal/db"
	"rpcv/internal/node"
	"rpcv/internal/node/nodetest"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/server"
	"rpcv/internal/shared"
	"rpcv/internal/sim"
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

func newLargeCallGrid() *largeCallGrid { return newCallGrid(largePayload, db.CostModel{}) }

// newCallGrid is a largeCallGrid whose calls carry size bytes each way,
// on a coordinator that charges cost per database statement.
func newCallGrid(size int, cost db.CostModel) *largeCallGrid {
	g := &largeCallGrid{env: nodetest.NewEnv("co", store.NewMemory()), params: make([]byte, size), output: make([]byte, size)}
	for i := range g.params {
		g.params[i], g.output[i] = byte(i), byte(i>>3)
	}
	g.co = coordinator.New(coordinator.Config{
		Coordinators:    []proto.NodeID{"co"},
		HeartbeatPeriod: time.Hour, HeartbeatTimeout: 24 * time.Hour,
		DBCost: cost,
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
// real loopback TCP: a 64 KiB echo call costs the two payloads no node
// can give back — the caller's fresh params, and echo's own copy of its
// input, which the client hands the caller as the result — and nothing
// payload-sized besides. The call's four reads off the wire (the Submit
// and the TaskResult at the coordinator, the assignment at the server,
// the Results at the client) go into buffers earlier calls gave back
// (node.Release): the server's params once the body has returned and
// its output once the result is acknowledged and its log entry deleted,
// the coordinator's params and output once the call is collected. Every
// log on the way keeps a small header and the slice it was handed. It
// read 8.2 payloads when the client's submit log and the server's result
// log each encoded the whole message, 6.1 while every read was a fresh
// slice, and 5.1 while the server's params were the only payload given
// back.
func TestLargeCallAllocatesOnePayloadPerHop(t *testing.T) {
	if raceBuild {
		t.Skip("allocation guard: the race detector's sync.Pool drops buffers")
	}
	g := collectGrid(t, "")
	g.echoFresh(t, 20) // warm: connections, frame buffers, pools, maps
	perCall := g.allocPerCall(t, 200)
	t.Logf("a 64 KiB echo call allocates %.0f B end to end = %.2f payloads", perCall, perCall/largePayload)
	if limit := largeCallLimit * largePayload; perCall > limit {
		t.Fatalf("a 64 KiB call allocates %.0f B end to end, over %.0f (%.1f payloads): some layer copies or re-encodes the payload, or a node no longer gives its payloads back", perCall, limit, largeCallLimit)
	}
}

// largeCallLimit, in payloads, is about 10 % over what a 64 KiB echo
// call allocated end to end when the guard was last tightened: 2.22 to
// 2.33 in six runs. One payload no node gave back would read 3.2.
const largeCallLimit = 2.5

// BenchmarkLargeCallAllocs is the guard as a figure: payloads/call, 2.0
// being the floor (see the test).
func BenchmarkLargeCallAllocs(b *testing.B) {
	const perIter = 200
	g := collectGrid(b, "")
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
// end to end when the guard was last tightened (TestSmallCallAllocations,
// 2.95 KB, the least of three windows).
const smallCallLimit = 3250

// TestSmallCallAllocations is the guard for a 64 B call, whose bytes are
// nearly all per envelope: a call is seven of them, and each costs its
// encode and what its decode leaves the handler — the lists and strings
// it may keep. Moving an envelope costs nothing of its own: no closure
// per received message, send queues that keep their arrays, disk keys
// without fmt, no closure or channel per DoOn. Neither does receiving
// one: the struct a message is decoded into goes back to the decoder
// once its handler has returned (node.Forgetter). The pull a server
// sends behind each result is not answered with an empty HeartbeatAck
// when a TaskResultAck has just gone to it. A step of the call allocates
// nothing either: a reply, a log completion, a delete or an execution
// takes no closure, and each log entry's key is built once. Nor does an
// edge: CallAsync, the scheduler's queue and Offload take pooled or
// reused entries, and the client keeps a result where it arrived.
// Before, a call read about 6.2 KB here, then 4.6 KB, 3.8 KB and 3.4 KB.
//
// The reading is the least of three windows. With one-second polls the
// calls of a window pile up between two of them, and the tables that
// hold them (the job table, the memory store's map, the collection
// lists) grow; on a loaded box more pile up than the warm-up held, and
// the window that first takes the tables past their peak pays for the
// growth.
func TestSmallCallAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("allocation guard: the race detector's sync.Pool drops buffers")
	}
	g := smallCallGrid(t)
	g.echoEach(t, 200, 64) // warm: connections, queue arrays, pools, maps
	perCall := g.allocPer(t, 2000, 64)
	for range 2 {
		perCall = min(perCall, g.allocPer(t, 2000, 64))
	}
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

// A body may return its params (the server then keeps them as the
// result), so the server gives back the params of every task but such
// a one: 64 KiB calls of a service that does, four in flight, get their
// own bytes back call after call while results wait to be sent and the
// wire decodes the next calls' payloads.
func TestServiceReturningItsParamsKeepsItsResults(t *testing.T) {
	g := bootTCPGrid(t, tcpGridSpec{user: "same", period: busyBeat, timeout: 2 * time.Second,
		servers: 1, parallelism: 4, services: map[string]server.Service{
			"same": func(p []byte) ([]byte, error) { return p, nil },
		}})
	t.Cleanup(g.close)
	g.mirrorAll(t, "same", 64, 4, largePayload)
}

// Payloads given back on real TCP, with the benchmark's timing: 64 KiB
// echo calls, eight in flight, a 5 ms beat — sessions poll while results
// are pushed to them, so poll replies send results again that a push has
// sent — and the 1 ns database cost bench/ sets, so every reply waits
// in a timer. The servers give back params and acknowledged outputs, the
// coordinator the payloads of collected calls, the client duplicates,
// and the wire decoders read the next calls' payloads into them: every
// result must still come back byte for byte. On the memory store and on
// the WAL, where the commit gate holds replies; under -race it is also
// the check that no given-back array is written while a sender reads it.
func TestGivenBackPayloadsNeverReachAnotherCall(t *testing.T) {
	for _, cell := range []struct {
		name string
		wal  bool
	}{{"memory", false}, {"wal", true}} {
		t.Run(cell.name, func(t *testing.T) {
			dir := ""
			if cell.wal {
				dir = t.TempDir()
			}
			o := obs.New("co")
			g := bootTCPGrid(t, tcpGridSpec{user: "reuse", period: 5 * time.Millisecond, timeout: 2 * time.Second,
				servers: 2, parallelism: 4, services: shared.BuiltinServices(), coDisk: dir,
				dbCost: time.Nanosecond, coObs: o})
			t.Cleanup(g.close)
			const calls = 200
			g.echoAll(t, calls, 8, largePayload)
			sent := func(via string) float64 {
				v, _ := o.Registry().Value("rpcv_coord_results_sent_total", obs.L("node", "co"), obs.L("via", via))
				return v
			}
			poll, push := sent("poll"), sent("push")
			t.Logf("%d calls: %v results sent by poll, %v pushed", calls, poll, push)
			if push == 0 || poll+push <= calls {
				t.Fatalf("%v results sent by poll, %v pushed, for %d calls: no poll reply sent a result again", poll, push, calls)
			}
			if st := g.coordinatorStats(); st.Collected < calls-8 {
				t.Fatalf("%d of %d calls collected: their payloads were never given back", st.Collected, calls)
			}
		})
	}
}

// envProbe is a handler that only keeps its Env.
type envProbe struct{ env node.Env }

func (p *envProbe) Start(env node.Env)                { p.env = env }
func (*envProbe) Receive(proto.NodeID, proto.Message) {}
func (*envProbe) Stop()                               {}

// The simulator and nodetest deliver messages that share their payloads
// with the sender — a hand-driven assignment's params are the
// coordinator's record's — so neither Env takes a payload back
// (node.Releaser): a server that finishes a 64 KiB task there leaves the
// array the record shares as it was, whatever the wire decodes next.
func TestHandDrivenServerLeavesTheRecordsParams(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 1})
	probe := &envProbe{}
	w.AddNode("probe", probe)
	w.Start("probe")
	for _, env := range []node.Env{probe.env, nodetest.NewEnv("sv0", store.NewMemory())} {
		if _, ok := env.(node.Releaser); ok {
			t.Fatalf("%T takes payloads back, but its messages share them with their sender", env)
		}
	}

	g := newLargeCallGrid()
	want := append([]byte(nil), g.params...)
	id := proto.CallID{User: "u0", Session: 1, Seq: 1}
	g.co.Receive("client-u0-1", &proto.Submit{Call: id, Service: "echo", Params: g.params})
	g.co.Receive("sv0", &proto.Heartbeat{From: "sv0", Role: proto.RoleServer, Capacity: 1, WantWork: true})
	g.env.Advance(time.Millisecond)
	var ack *proto.HeartbeatAck
	for _, m := range g.env.Take() {
		if a, ok := m.(*proto.HeartbeatAck); ok && len(a.Tasks) == 1 {
			ack = a
		}
	}
	if ack == nil || &ack.Tasks[0].Params[0] != &g.params[0] {
		t.Fatal("the assignment does not carry the record's params")
	}

	svEnv := nodetest.NewEnv("sv0", store.NewMemory())
	sv := server.New(server.Config{Coordinators: []proto.NodeID{"co"}, Services: shared.BuiltinServices()})
	sv.Start(svEnv)
	sv.Receive("co", ack)
	if sv.StatsNow().Executed != 1 {
		t.Fatal("the task was not executed")
	}
	for i := 0; i < 8; i++ {
		other := bytes.Repeat([]byte{byte(i + 1)}, largePayload)
		frame, err := proto.AppendFrame(nil, "co", &proto.Submit{Call: id, Service: "echo", Params: other})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := proto.NewWireDecoder(bytes.NewReader(frame)).Next(); err != nil {
			t.Fatal(err)
		}
	}
	if rec, ok := g.co.DB().Peek(id); !ok || !bytes.Equal(rec.Params, want) || !bytes.Equal(g.params, want) {
		t.Fatal("the params the coordinator's record shares changed after the server finished with them")
	}
}
