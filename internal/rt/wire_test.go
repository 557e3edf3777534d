package rt

// Mixed-cluster interoperability tests for the binary wire codec: a
// node sends with the codec its -wire flag picked, and every receiver
// auto-detects per connection — so binary and gob nodes must exchange
// every message kind losslessly in both directions, and a WAL written
// by a gob build must recover under the binary default.

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/coordinator"
	"rpcv/internal/db"
	"rpcv/internal/msglog"
	"rpcv/internal/node"
	"rpcv/internal/proto"
	"rpcv/internal/server"
	"rpcv/internal/store"
)

// wireSampleMessages returns one populated instance of every protocol
// message kind (the rt-level mirror of proto's round-trip sample set).
func wireSampleMessages() []proto.Message {
	call := proto.CallID{User: "user-01", Session: 7, Seq: 42}
	task := proto.TaskID{Call: call, Instance: 3}
	st := proto.ShardMapState{Version: 9, VNodes: 64,
		Rings: [][]proto.NodeID{{"coord-00", "coord-01"}, {"coord-02"}}}
	deadline := time.Unix(1_000_000_600, 0).UTC()
	return []proto.Message{
		&proto.Submit{Call: call, Service: "svc", Params: []byte{1, 2}, ExecTime: time.Second, ResultSize: 8, Deadline: time.Minute},
		&proto.SubmitAck{Call: call, MaxSeq: 42},
		&proto.Poll{User: "user-01", Session: 7, Ack: 40, Have: []proto.RPCSeq{42, 43, 47}},
		&proto.Results{User: "user-01", Session: 7, Results: []proto.Result{{Call: call, Output: []byte{9}, Err: "e", Server: "server-000"}}},
		&proto.SyncRequest{User: "user-01", Session: 7, MaxSeq: 42, HaveLog: true},
		&proto.SyncReply{User: "user-01", Session: 7, MaxSeq: 42, Known: []proto.RPCSeq{1, 2}},
		&proto.FetchResult{User: "user-01", Session: 7, Seq: 42},
		&proto.FetchReply{Call: call, Known: true, Finished: true, Result: proto.Result{Call: call, Output: []byte{4}}},
		&proto.Heartbeat{From: "server-000", Role: proto.RoleServer, Capacity: 2, WantWork: true},
		&proto.HeartbeatAck{From: "coord-00", Tasks: []proto.TaskAssignment{{Task: task, Service: "svc", Params: []byte{5}}}, Coordinators: []proto.NodeID{"coord-00"}},
		&proto.TaskResult{From: "server-000", Task: task, Output: []byte{6}, Err: "x", Exec: time.Second},
		&proto.TaskResultAck{Task: task},
		&proto.TaskCancel{Task: task},
		&proto.ServerSync{From: "server-000", Tasks: []proto.TaskID{task}, Running: []proto.TaskID{task}},
		&proto.ServerSyncReply{Resend: []proto.TaskID{task}, Drop: []proto.TaskID{task}},
		&proto.ReplicaUpdate{From: "coord-00", Epoch: 2, Round: 5, Jobs: []proto.JobRecord{{Call: call, Service: "svc", State: proto.TaskFinished, Output: []byte{7}}}, MaxSeqs: []proto.SessionMax{{User: "user-01", Session: 7, MaxSeq: 42}}},
		&proto.ReplicaAck{From: "coord-01", Epoch: 2, Round: 5},
		&proto.ShardMapRequest{From: "client-00"},
		&proto.ShardMapReply{Map: st},
		&proto.ShardRedirect{From: "coord-00", User: "user-01", Session: 7, Call: call, Shard: 1, Map: st},
		&proto.ShardSync{From: "coord-00", Shard: 0, Epoch: 2, Round: 5, Jobs: []proto.JobRecord{{Call: call, State: proto.TaskFinished}}, Sessions: []proto.SessionSeqs{{User: "user-01", Session: 7, Seqs: []proto.RPCSeq{1, 42}}}},
		&proto.ShardSyncAck{From: "coord-02", Shard: 1, Epoch: 2, Round: 5, Want: []proto.CallID{call}},
		&proto.StealRequest{From: "coord-02", Shard: 1, Epoch: 2, Round: 3, Capacity: 4},
		&proto.StealGrant{From: "coord-00", Shard: 0, Epoch: 2, Round: 3, Jobs: []proto.JobRecord{
			{Call: call, Service: "svc", Params: []byte{8}, ExecTime: time.Second, Deadline: deadline, State: proto.TaskOngoing, Instance: 2},
		}},
	}
}

// recorder is a handler that only records what it receives (unlike
// echo it never replies, keeping the received sequence exactly the
// sent sequence).
type recorder struct {
	env  node.Env
	mu   sync.Mutex
	from []proto.NodeID
	seen []proto.Message
}

func (r *recorder) Start(env node.Env) { r.env = env }
func (r *recorder) Stop()              {}
func (r *recorder) Receive(from proto.NodeID, m proto.Message) {
	r.mu.Lock()
	r.from = append(r.from, from)
	r.seen = append(r.seen, m)
	r.mu.Unlock()
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.seen)
}

// TestMixedWireEveryMessageKindLossless runs a binary-codec node
// against a gob-codec node and streams every message kind in both
// directions over real TCP: each side must receive structurally
// identical values, whatever codec the sender picked.
func TestMixedWireEveryMessageKindLossless(t *testing.T) {
	bin := &recorder{}
	rbin, err := Start(Config{ID: "bin", ListenAddr: "127.0.0.1:0", Handler: bin,
		Logf: quietLogf, Wire: proto.WireBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer rbin.Close()
	gb := &recorder{}
	rgob, err := Start(Config{ID: "gob", ListenAddr: "127.0.0.1:0", Handler: gb,
		Logf: quietLogf, Wire: proto.WireGob})
	if err != nil {
		t.Fatal(err)
	}
	defer rgob.Close()
	rbin.SetPeer("gob", rgob.Addr())
	rgob.SetPeer("bin", rbin.Addr())

	msgs := wireSampleMessages()
	rbin.Do(func() {
		for _, m := range msgs {
			bin.env.Send("gob", m)
		}
	})
	rgob.Do(func() {
		for _, m := range msgs {
			gb.env.Send("bin", m)
		}
	})

	check := func(name string, rec *recorder, wantFrom proto.NodeID) {
		if !waitFor(t, 10*time.Second, func() bool { return rec.count() == len(msgs) }) {
			t.Fatalf("%s received %d/%d messages", name, rec.count(), len(msgs))
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		for i, want := range msgs {
			if rec.from[i] != wantFrom {
				t.Errorf("%s message %d: from = %s, want %s", name, i, rec.from[i], wantFrom)
			}
			if !reflect.DeepEqual(want, rec.seen[i]) {
				t.Errorf("%s message %d (%s): mismatch:\n sent %#v\n got  %#v",
					name, i, want.Kind(), want, rec.seen[i])
			}
		}
	}
	check("gob node", gb, "bin")     // binary sender -> gob-configured receiver
	check("binary node", bin, "gob") // gob sender -> binary-configured receiver
}

// TestMixedWireGridCompletes is the cluster-level interop proof: a
// binary-codec coordinator drives a gob-codec server and a gob-codec
// client (the exact upgrade scenario: coordinator first) and every
// call completes — delivery, scheduling and result upload all cross
// the codec boundary.
func TestMixedWireGridCompletes(t *testing.T) {
	const (
		total   = 20
		beat    = 25 * time.Millisecond
		suspect = 250 * time.Millisecond
	)
	co := coordinator.New(coordinator.Config{
		Coordinators:     []proto.NodeID{"co"},
		HeartbeatPeriod:  beat,
		HeartbeatTimeout: suspect,
		DBCost:           db.CostModel{PerOp: 10 * time.Microsecond},
	})
	rco, err := Start(Config{ID: "co", ListenAddr: "127.0.0.1:0", Handler: co,
		Logf: quietLogf, Wire: proto.WireBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer rco.Close()
	dir := Directory{"co": rco.Addr()}

	sv := server.New(server.Config{
		Coordinators:     []proto.NodeID{"co"},
		HeartbeatPeriod:  beat,
		SuspicionTimeout: suspect,
		Services: map[string]server.Service{
			"noop": func([]byte) ([]byte, error) { return []byte("ok"), nil },
		},
		Codec: proto.CodecGob,
	})
	rsv, err := Start(Config{ID: "sv0", ListenAddr: "127.0.0.1:0", Handler: sv,
		Directory: dir, Logf: quietLogf, Wire: proto.WireGob})
	if err != nil {
		t.Fatal(err)
	}
	defer rsv.Close()
	rco.SetPeer("sv0", rsv.Addr())

	var (
		mu      sync.Mutex
		results int
	)
	cli := client.New(client.Config{
		User:             "u",
		Session:          1,
		Coordinators:     []proto.NodeID{"co"},
		PollPeriod:       beat,
		SuspicionTimeout: suspect,
		Logging:          msglog.NonBlockingPessimistic,
		Disk:             msglog.InstantDisk(),
		Codec:            proto.CodecGob,
		OnResult: func(proto.Result, time.Time) {
			mu.Lock()
			results++
			mu.Unlock()
		},
	})
	rcli, err := Start(Config{ID: "cli", ListenAddr: "127.0.0.1:0", Handler: cli,
		Directory: dir, Logf: quietLogf, Wire: proto.WireGob})
	if err != nil {
		t.Fatal(err)
	}
	defer rcli.Close()
	rco.SetPeer("cli", rcli.Addr())

	rcli.Do(func() {
		for i := 0; i < total; i++ {
			cli.Submit("noop", nil, 0, 0)
		}
	})
	if !waitFor(t, 30*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return results >= total
	}) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("mixed grid completed %d/%d calls", results, total)
	}
}

// TestWALGobRecordsRecoverUnderBinary is the storage half of the
// interop matrix: a coordinator on the gob codec fills a wal store
// with gob-encoded job records and crashes mid-load; the binary-
// default build restarts over the same directory, recovers every
// record, finishes the run, and re-persists going forward in binary —
// the upgrade path for durable state.
func TestWALGobRecordsRecoverUnderBinary(t *testing.T) {
	const (
		total   = 40
		beat    = 25 * time.Millisecond
		suspect = 250 * time.Millisecond
	)
	coordDir := t.TempDir()
	newCoord := func(codec proto.Codec) *coordinator.Coordinator {
		return coordinator.New(coordinator.Config{
			Coordinators:     []proto.NodeID{"co"},
			HeartbeatPeriod:  beat,
			HeartbeatTimeout: suspect,
			DBCost:           db.CostModel{PerOp: 10 * time.Microsecond},
			Codec:            codec,
		})
	}
	coordCfg := func(h *coordinator.Coordinator, wire string) Config {
		return Config{ID: "co", ListenAddr: "127.0.0.1:0", Handler: h,
			DiskDir: coordDir, Store: "wal", Logf: quietLogf, Wire: wire}
	}
	rco, err := Start(coordCfg(newCoord(proto.CodecGob), proto.WireGob))
	if err != nil {
		t.Fatal(err)
	}
	dir := Directory{"co": rco.Addr()}

	sv := server.New(server.Config{
		Coordinators:     []proto.NodeID{"co"},
		HeartbeatPeriod:  beat,
		SuspicionTimeout: suspect,
		Services: map[string]server.Service{
			"noop": func([]byte) ([]byte, error) { return []byte("ok"), nil },
		},
	})
	rsv, err := Start(Config{ID: "sv0", ListenAddr: "127.0.0.1:0", Handler: sv,
		Directory: dir, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rsv.Close()
	rco.SetPeer("sv0", rsv.Addr())

	var (
		mu      sync.Mutex
		results = map[proto.RPCSeq]bool{}
	)
	cli := client.New(client.Config{
		User:             "u",
		Session:          1,
		Coordinators:     []proto.NodeID{"co"},
		PollPeriod:       beat,
		SuspicionTimeout: suspect,
		Logging:          msglog.NonBlockingPessimistic,
		Disk:             msglog.InstantDisk(),
		OnResult: func(res proto.Result, _ time.Time) {
			mu.Lock()
			results[res.Call.Seq] = true
			mu.Unlock()
		},
	})
	rcli, err := Start(Config{ID: "cli", ListenAddr: "127.0.0.1:0", Handler: cli,
		Directory: dir, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rcli.Close()
	rco.SetPeer("cli", rcli.Addr())

	rcli.Do(func() {
		for i := 0; i < total; i++ {
			cli.Submit("noop", nil, 0, 0)
		}
	})
	resultCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(results)
	}
	// Let the gob incarnation persist part of the load, then crash it.
	if !waitFor(t, 20*time.Second, func() bool { return resultCount() >= total/4 }) {
		t.Fatalf("gob incarnation never warmed up: %d results", resultCount())
	}
	rco.Close()

	// Binary-default incarnation over the same WAL.
	rco2, err := Start(coordCfg(newCoord(proto.CodecBinary), proto.WireBinary))
	if err != nil {
		t.Fatalf("binary restart over gob WAL: %v", err)
	}
	rco2.SetPeer("cli", rcli.Addr())
	rco2.SetPeer("sv0", rsv.Addr())
	rsv.SetPeer("co", rco2.Addr())
	rcli.SetPeer("co", rco2.Addr())

	if !waitFor(t, 60*time.Second, func() bool { return resultCount() >= total }) {
		t.Fatalf("after binary restart: %d/%d results — gob-encoded records were lost",
			resultCount(), total)
	}
	rco2.Close()

	// Every record in the reopened store — whichever codec wrote it —
	// must decode, and all calls must be finished.
	st, err := store.OpenWAL(coordDir, store.WALOptions{})
	if err != nil {
		t.Fatalf("reopen coordinator store: %v", err)
	}
	defer func() { _ = st.Close() }() // read-only reopen; nothing to flush
	finished := 0
	var dec proto.Decoder
	for _, key := range st.Keys("coord/job/") {
		raw, ok := st.Read(key)
		if !ok {
			continue
		}
		rec, err := dec.DecodeJob(raw)
		if err != nil {
			t.Fatalf("corrupt job record %s after mixed-codec recovery: %v", key, err)
		}
		if rec.State == proto.TaskFinished {
			finished++
		}
	}
	if finished != total {
		t.Fatalf("store holds %d finished records, want %d", finished, total)
	}
}
