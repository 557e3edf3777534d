package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/coordinator"
	"rpcv/internal/db"
	"rpcv/internal/gridrpc"
	"rpcv/internal/msglog"
	"rpcv/internal/node"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/sched"
	"rpcv/internal/server"
	"rpcv/internal/shard"
	"rpcv/internal/shared"
	"rpcv/internal/store"
)

// Probes time the layers' exported functions from outside, one
// goroutine, fixed counts: a change to one layer moves its probe even
// when the grid's timers hide it end to end.

// timeOp runs fn n times and returns the mean nanoseconds and heap
// allocations per call.
func timeOp(n int, fn func(i int)) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

func probeCall(seq int) proto.CallID {
	return proto.CallID{User: "u0", Session: 1, Seq: proto.RPCSeq(seq)}
}

func probeSubmit(seq, size int) *proto.Submit {
	return &proto.Submit{Call: probeCall(seq), Service: "echo", Params: make([]byte, size)}
}

// runProbes runs every probe once and lists the readings.
func runProbes(tmpRoot string) (metricList, error) {
	dir, err := os.MkdirTemp(tmpRoot, "probes-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var l metricList
	probeProto(&l)
	if err := probeStore(&l, dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	probeTables(&l)
	if err := probeRuntime(&l); err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	probeCoordinator(&l)
	probeClientServer(&l)
	if err := probeGridRPC(&l); err != nil {
		return nil, fmt.Errorf("gridrpc: %w", err)
	}
	probeObs(&l)
	return l, nil
}

// ---------------------------------------------------------------------
// proto
// ---------------------------------------------------------------------

func probeProto(l *metricList) {
	const n = 20000
	small := probeSubmit(1, 64)
	var buf []byte
	encNS, encAllocs := timeOp(n, func(int) {
		buf, _ = proto.AppendFrame(buf[:0], "client-u0-1", small) // a 64 B submit is far below the frame cap
	})
	l.add("proto.submit_encode_ns", encNS, "ns")

	stream := bytes.Repeat(buf, n)
	dec := proto.NewWireDecoder(bytes.NewReader(stream))
	decNS, decAllocs := timeOp(n, func(int) {
		if _, _, err := dec.Next(); err != nil {
			panic("bench: decoding the bench's own frames: " + err.Error())
		}
	})
	l.add("proto.submit_decode_ns", decNS, "ns")
	l.add("proto.submit_roundtrip_allocs", encAllocs+decAllocs, "count")

	job := &proto.JobRecord{
		Call: probeCall(1), Service: "echo", State: proto.TaskFinished, Server: "sv0",
		Params: make([]byte, 64<<10), Output: make([]byte, 64<<10),
	}
	jobNS, _ := timeOp(500, func(int) { proto.EncodeJob(job) })
	l.add("proto.job64k_encode_us", jobNS/1e3, "us")

	big := probeSubmit(1, 64<<10)
	var frame []byte
	rd := bytes.NewReader(nil)
	bigDec := proto.NewWireDecoder(rd)
	frameNS, _ := timeOp(500, func(int) {
		frame, _ = proto.AppendFrame(frame[:0], "client-u0-1", big) // 64 KiB is below the frame cap
		rd.Reset(frame)
		if _, _, err := bigDec.Next(); err != nil {
			panic("bench: decoding the bench's own frame: " + err.Error())
		}
	})
	l.add("proto.frame64k_roundtrip_us", frameNS/1e3, "us")
}

// ---------------------------------------------------------------------
// store
// ---------------------------------------------------------------------

// writtenBytes reads how many bytes this process has passed to write
// calls so far (wchar in /proc/self/io).
func writtenBytes() (float64, error) {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/io has no wchar line")
}

func probeStore(l *metricList, dir string) error {
	// Machine calibration: what one 4 KiB append + fsync costs here.
	f, err := os.Create(filepath.Join(dir, "fsync.dat"))
	if err != nil {
		return err
	}
	page := make([]byte, 4096)
	var ioErr error
	fsyncNS, _ := timeOp(200, func(int) {
		if _, err := f.Write(page); err != nil {
			ioErr = err
		}
		if err := f.Sync(); err != nil {
			ioErr = err
		}
	})
	if err := f.Close(); err != nil {
		ioErr = err
	}
	if ioErr != nil {
		return ioErr
	}
	l.add("store.fsync_us", fsyncNS/1e3, "us")

	w, err := store.OpenWAL(filepath.Join(dir, "small"), store.WALOptions{})
	if err != nil {
		return err
	}
	val := make([]byte, 200) // about one encoded small job record
	syncNS, _ := timeOp(300, func(i int) {
		if err := w.Write(fmt.Sprintf("coord/job/%06d", i), val); err != nil {
			ioErr = err
		}
	})
	l.add("store.wal_write_sync_us", syncNS/1e3, "us")

	const batch = 64
	batchNS, _ := timeOp(50, func(i int) {
		var wg sync.WaitGroup
		wg.Add(batch)
		for j := 0; j < batch; j++ {
			w.WriteAsync(fmt.Sprintf("coord/job/b%06d", i*batch+j), val, func(err error) {
				if err != nil {
					ioErr = err // written on the committer only; read after Close
				}
				wg.Done()
			})
		}
		wg.Wait()
	})
	l.add("store.wal_write_batch64_us", batchNS/batch/1e3, "us")
	if err := w.Close(); err != nil {
		return err
	}
	if ioErr != nil {
		return ioErr
	}

	// The bulk pattern: every job persisted three times with 64 KiB
	// values, enough to rotate segments and take a snapshot. Bytes
	// passed to write calls over bytes the caller handed in is the
	// engine's write amplification.
	big, err := store.OpenWAL(filepath.Join(dir, "big"), store.WALOptions{})
	if err != nil {
		return err
	}
	bigVal := make([]byte, 64<<10)
	before, err := writtenBytes()
	if err != nil {
		return err
	}
	user := 0.0
	bigNS, _ := timeOp(3*128, func(i int) {
		key := fmt.Sprintf("coord/job/%06d", i%128)
		user += float64(len(key) + len(bigVal))
		if err := big.Write(key, bigVal); err != nil {
			ioErr = err
		}
	})
	if err := big.Close(); err != nil { // waits for a snapshot in flight
		return err
	}
	after, err := writtenBytes()
	if err != nil {
		return err
	}
	if ioErr != nil {
		return ioErr
	}
	l.add("store.wal_write64k_sync_us", bigNS/1e3, "us")
	l.add("store.wal_disk_bytes_per_user_byte", (after-before)/user, "ratio")

	// Recovery: reopen a log of 10 k small records.
	recDir := filepath.Join(dir, "recover")
	rec, err := store.OpenWAL(recDir, store.WALOptions{})
	if err != nil {
		return err
	}
	for i := 0; i < 10000; i++ {
		rec.WriteAsync(fmt.Sprintf("coord/job/%06d", i), val, nil)
	}
	if err := rec.Close(); err != nil { // drains the staged writes
		return err
	}
	start := time.Now()
	rec, err = store.OpenWAL(recDir, store.WALOptions{})
	if err != nil {
		return err
	}
	l.add("store.wal_recover_ms_10k", float64(time.Since(start))/1e6, "ms")
	if n := len(rec.Keys("coord/job/")); n != 10000 {
		ioErr = fmt.Errorf("recovered %d of 10000 records", n)
	}
	if err := rec.Close(); err != nil {
		return err
	}
	return ioErr
}

// ---------------------------------------------------------------------
// db, sched, shard
// ---------------------------------------------------------------------

func probeTables(l *metricList) {
	// The job table as handlePoll scans it: 10 k finished jobs of two
	// sessions, the poller already holding all of its own.
	d := db.New(db.CostModel{PerOp: time.Nanosecond})
	have := make(map[proto.RPCSeq]bool, 5000)
	for i := 1; i <= 5000; i++ {
		have[proto.RPCSeq(i)] = true
		for s, user := range []proto.UserID{"u0", "u1"} {
			d.Put(&proto.JobRecord{
				Call:  proto.CallID{User: user, Session: proto.SessionID(s + 1), Seq: proto.RPCSeq(i)},
				State: proto.TaskFinished,
			})
		}
	}
	selNS, _ := timeOp(50, func(int) {
		d.Select(func(r *proto.JobRecord) bool {
			return r.Call.User == "u0" && r.Call.Session == 1 &&
				r.State == proto.TaskFinished && !have[r.Call.Seq]
		})
	})
	l.add("db.select_session_us_10k", selNS/1e3, "us")

	eng, err := sched.New(sched.Config{Policy: "fcfs"})
	if err != nil {
		panic("bench: the fcfs policy is always registered: " + err.Error())
	}
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < 10000; i++ {
		eng.Enqueue(probeCall(i+1), 0, time.Time{}, now)
	}
	schedNS, _ := timeOp(20000, func(i int) {
		eng.Enqueue(probeCall(10001+i), 0, time.Time{}, now)
		eng.Pop("sv0", now)
	})
	l.add("sched.fcfs_enqueue_pop_ns", schedNS, "ns")

	lm := shard.NewLoopMap(4)
	owner := 0
	loopNS, _ := timeOp(200000, func(i int) { owner += lm.Owner("u0", proto.SessionID(i)) })
	_ = owner // keeps the call from being optimised away
	l.add("shard.loop_owner_ns", loopNS, "ns")
}

// ---------------------------------------------------------------------
// rt
// ---------------------------------------------------------------------

// echoHandler sends every message back to where it came from.
type echoHandler struct{ env node.Env }

func (h *echoHandler) Start(env node.Env)                           { h.env = env }
func (h *echoHandler) Receive(from proto.NodeID, msg proto.Message) { h.env.Send(from, msg) }
func (h *echoHandler) Stop()                                        {}

// pumpHandler keeps a window of messages bouncing off an echo peer. All
// fields are touched on its event loop only; done is closed there.
type pumpHandler struct {
	env       node.Env
	peer      proto.NodeID
	msg       proto.Message
	remaining int // messages still to send
	pending   int // replies still to receive
	done      chan struct{}
}

func (h *pumpHandler) Start(env node.Env) { h.env = env }
func (h *pumpHandler) Stop()              {}

func (h *pumpHandler) Receive(proto.NodeID, proto.Message) {
	h.pending--
	if h.remaining > 0 {
		h.remaining--
		h.env.Send(h.peer, h.msg)
	}
	if h.pending == 0 {
		close(h.done)
	}
}

// pump sends total copies of msg with at most window in flight and
// returns how long the last reply took to arrive.
func pump(r *rt.Runtime, h *pumpHandler, msg proto.Message, total, window int) time.Duration {
	done := make(chan struct{})
	start := time.Now()
	r.Do(func() {
		h.msg, h.done = msg, done
		h.pending, h.remaining = total, total-window
		for i := 0; i < window; i++ {
			h.env.Send(h.peer, msg)
		}
	})
	<-done
	return time.Since(start)
}

func probeRuntime(l *metricList) error {
	echo, err := rt.Start(rt.Config{ID: "echo", ListenAddr: "127.0.0.1:0", Handler: &echoHandler{}, Logf: quiet})
	if err != nil {
		return err
	}
	defer echo.Close()
	h := &pumpHandler{peer: "echo"}
	pumpRT, err := rt.Start(rt.Config{
		ID: "pump", ListenAddr: "127.0.0.1:0", Handler: h,
		Directory: rt.Directory{"echo": echo.Addr()}, Logf: quiet,
	})
	if err != nil {
		return err
	}
	defer pumpRT.Close()
	echo.SetPeer("pump", pumpRT.Addr())

	small, big := probeSubmit(1, 64), probeSubmit(1, 64<<10)
	pump(pumpRT, h, small, 200, 1) // connections dialled, buffers grown

	const rtts = 2000
	l.add("rt.echo_rtt_us", float64(pump(pumpRT, h, small, rtts, 1))/rtts/1e3, "us")
	const msgs = 60000
	l.add("rt.stream_kmsgs_per_s", msgs/1e3/pump(pumpRT, h, small, msgs, 64).Seconds(), "kmsgs/s")
	const bigMsgs = 1500
	mb := float64(bigMsgs) * float64(len(big.Params)) / 1e6
	l.add("rt.stream64k_mb_per_s", mb/pump(pumpRT, h, big, bigMsgs, 8).Seconds(), "MB/s")

	doNS, _ := timeOp(20000, func(int) { pumpRT.Do(func() {}) })
	l.add("rt.do_roundtrip_us", doNS/1e3, "us")
	return nil
}

// ---------------------------------------------------------------------
// coordinator
// ---------------------------------------------------------------------

// probeCoordinatorOn boots a coordinator on a stub env with the grid's
// settings.
func probeCoordinatorOn(id proto.NodeID, ring ...proto.NodeID) (*coordinator.Coordinator, *stubEnv) {
	env := newStubEnv(id)
	co := coordinator.New(coordinator.Config{
		Coordinators:     ring,
		HeartbeatPeriod:  beatPeriod,
		HeartbeatTimeout: suspectTimeout,
		DBCost:           db.CostModel{PerOp: time.Nanosecond},
		Policy:           "fcfs",
	})
	co.Start(env)
	return co, env
}

// settle lets the handler's database-cost timers fire, so a timed
// Receive includes sending its reply.
func settle(env *stubEnv) { env.advance(time.Microsecond) }

// coordinatorSubmit times n submits of session u0/1 starting at seq
// first and returns the mean microseconds.
func coordinatorSubmit(co *coordinator.Coordinator, env *stubEnv, first, n int) float64 {
	subs := make([]*proto.Submit, n)
	for i := range subs {
		subs[i] = probeSubmit(first+i, 64)
	}
	ns, _ := timeOp(n, func(i int) {
		co.Receive("client-u0-1", subs[i])
		settle(env)
	})
	env.take()
	return ns / 1e3
}

// dispatchAll has server sv0 pull every pending job and returns the
// assignments.
func dispatchAll(co *coordinator.Coordinator, env *stubEnv) []proto.TaskAssignment {
	var tasks []proto.TaskAssignment
	hb := &proto.Heartbeat{From: "sv0", Role: proto.RoleServer, Capacity: 4, WantWork: true}
	for {
		co.Receive("sv0", hb)
		settle(env)
		got := 0
		for _, s := range env.take() {
			if ack, ok := s.msg.(*proto.HeartbeatAck); ok {
				tasks = append(tasks, ack.Tasks...)
				got += len(ack.Tasks)
			}
		}
		if got == 0 {
			return tasks
		}
	}
}

// finishAll times one TaskResult per assignment and returns the mean
// microseconds.
func finishAll(co *coordinator.Coordinator, env *stubEnv, tasks []proto.TaskAssignment) float64 {
	results := make([]*proto.TaskResult, len(tasks))
	for i, t := range tasks {
		results[i] = &proto.TaskResult{From: "sv0", Task: t.Task, Output: t.Params}
	}
	ns, _ := timeOp(len(results), func(i int) {
		co.Receive("sv0", results[i])
		settle(env)
	})
	env.take()
	return ns / 1e3
}

func probeCoordinator(l *metricList) {
	co, env := probeCoordinatorOn(coordID, coordID)
	l.add("coordinator.submit_us", coordinatorSubmit(co, env, 1, 2000), "us")
	l.add("coordinator.taskresult_us", finishAll(co, env, dispatchAll(co, env)), "us")

	// Grow the table to 10 k finished jobs over two sessions, as a long
	// saturate window leaves it.
	for seq := 1; seq <= 4000; seq++ {
		co.Receive("client-u0-1", probeSubmit(2000+seq, 64))
		sub := probeSubmit(seq, 64)
		sub.Call.User, sub.Call.Session = "u1", 2
		co.Receive("client-u1-2", sub)
		settle(env)
	}
	finishAll(co, env, dispatchAll(co, env))
	l.add("coordinator.submit_us_10k", coordinatorSubmit(co, env, 6001, 1000), "us")

	have := make([]proto.RPCSeq, 6000)
	for i := range have {
		have[i] = proto.RPCSeq(i + 1)
	}
	poll := &proto.Poll{User: "u0", Session: 1, Have: have}
	pollNS, _ := timeOp(50, func(int) {
		co.Receive("client-u0-1", poll)
		settle(env)
	})
	env.take()
	l.add("coordinator.poll_us_10k", pollNS/1e3, "us")

	sync := &proto.SyncRequest{User: "u0", Session: 1, MaxSeq: 7000, HaveLog: true}
	syncNS, _ := timeOp(50, func(int) {
		co.Receive("client-u0-1", sync)
		settle(env)
	})
	env.take()
	l.add("coordinator.sync_us_10k", syncNS/1e3, "us")
	co.Stop()

	// One passive-replication round of 1 k dirty jobs to the ring
	// successor and its ack back: the only place the ring is measured.
	ring := []proto.NodeID{"co-a", "co-b"}
	a, envA := probeCoordinatorOn("co-a", ring...)
	b, envB := probeCoordinatorOn("co-b", ring...)
	coordinatorSubmit(a, envA, 1, 1000)
	start := time.Now()
	a.ReplicateNow()
	settle(envA)
	for _, s := range envA.take() {
		if s.to == "co-b" {
			b.Receive("co-a", s.msg)
		}
	}
	settle(envB)
	for _, s := range envB.take() {
		if s.to == "co-a" {
			a.Receive("co-b", s.msg)
		}
	}
	l.add("coordinator.replicate_ms_1k", float64(time.Since(start))/1e6, "ms")
	a.Stop()
	b.Stop()
}

// ---------------------------------------------------------------------
// client, server, gridrpc
// ---------------------------------------------------------------------

func probeClientServer(l *metricList) {
	cenv := newStubEnv("client-u0-1")
	cli := client.New(client.Config{
		User: "u0", Session: 1, Coordinators: []proto.NodeID{coordID},
		PollPeriod: beatPeriod, SuspicionTimeout: suspectTimeout,
		Logging: msglog.NonBlockingPessimistic,
	})
	cli.Start(cenv)
	params := make([]byte, 64)
	subNS, _ := timeOp(5000, func(int) { cli.Submit("echo", params, 0, 0) })
	cli.Stop()
	l.add("client.submit_us", subNS/1e3, "us")

	senv := newStubEnv("sv0")
	sv := server.New(server.Config{
		Coordinators: []proto.NodeID{coordID}, HeartbeatPeriod: beatPeriod,
		SuspicionTimeout: suspectTimeout, Parallelism: 4,
		Services: shared.BuiltinServices(),
	})
	sv.Start(senv)
	const n = 5000
	acks := make([]*proto.HeartbeatAck, n)
	done := make([]*proto.TaskResultAck, n)
	for i := range acks {
		task := proto.TaskID{Call: probeCall(i + 1), Instance: 1}
		acks[i] = &proto.HeartbeatAck{From: coordID, Tasks: []proto.TaskAssignment{
			{Task: task, Service: "echo", Params: params},
		}}
		done[i] = &proto.TaskResultAck{Task: task}
	}
	// One task's whole life on the server: assignment, execution, result
	// log write, upload, ack and log garbage collection.
	taskNS, _ := timeOp(n, func(i int) {
		sv.Receive(coordID, acks[i])
		sv.Receive(coordID, done[i])
		senv.sent = senv.sent[:0]
	})
	sv.Stop()
	l.add("server.task_us", taskNS/1e3, "us")
}

// sinkHandler swallows everything.
type sinkHandler struct{}

func (sinkHandler) Start(node.Env)                      {}
func (sinkHandler) Receive(proto.NodeID, proto.Message) {}
func (sinkHandler) Stop()                               {}

func probeGridRPC(l *metricList) error {
	sink, err := rt.Start(rt.Config{ID: coordID, ListenAddr: "127.0.0.1:0", Handler: sinkHandler{}, Logf: quiet})
	if err != nil {
		return err
	}
	defer sink.Close()
	s, err := gridrpc.Dial(gridrpc.Config{
		User: "u0", Session: 1,
		Coordinators: map[string]string{string(coordID): sink.Addr()},
		Logging:      msglog.NonBlockingPessimistic,
		PollPeriod:   beatPeriod, SuspicionTimeout: suspectTimeout,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	params := make([]byte, 64)
	var callErr error
	ns, _ := timeOp(5000, func(int) {
		if _, err := s.CallAsync("echo", params); err != nil {
			callErr = err
		}
	})
	l.add("gridrpc.callasync_us", ns/1e3, "us")
	return callErr
}

// ---------------------------------------------------------------------
// obs
// ---------------------------------------------------------------------

func probeObs(l *metricList) {
	o := obs.New("probe")
	call := probeCall(1)
	spanNS, _ := timeOp(200000, func(int) { o.Tracer().Event(call, obs.StageEnqueue, "") })
	l.add("obs.span_event_ns", spanNS, "ns")
	hist := o.Registry().Histogram("bench_probe_ns", obs.L("node", "probe"))
	histNS, _ := timeOp(200000, func(i int) { hist.Observe(int64(i)) })
	l.add("obs.hist_observe_ns", histNS, "ns")
}
