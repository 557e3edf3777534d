package coordinator

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rpcv/internal/db"
	"rpcv/internal/node/nodetest"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/store"
)

// loopedStore stands in for rt's loopDisk: a group-commit engine runs
// the completions of its staged calls on its committer goroutine, and
// the runtime posts them to the owning loop. Here they queue until the
// test — the loop — drains them. A completion that fires before the
// staging call returns (an engine without batching) runs on the loop as
// that call returns, or, when completions of earlier calls are still
// queued, behind them — as it does there.
type loopedStore struct {
	store.Store
	engine  store.Store // beneath any wrapper: drain's barrier
	mu      sync.Mutex
	pending []func()
}

func (l *loopedStore) WriteAsync(key string, value []byte, done func(error)) {
	l.onLoop(done, func(fromStore func(error)) { l.Store.WriteAsync(key, value, fromStore) })
}

func (l *loopedStore) DeleteAsync(key string, done func(error)) {
	l.onLoop(done, func(fromStore func(error)) { l.Store.DeleteAsync(key, fromStore) })
}

func (l *loopedStore) onLoop(done func(error), stage func(fromStore func(error))) {
	var (
		returned, fired bool
		firedErr        error
	)
	stage(func(err error) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if !returned {
			fired, firedErr = true, err // the staging call takes it
			return
		}
		l.pending = append(l.pending, func() { done(err) })
	})
	l.mu.Lock()
	returned = true
	inline := fired && len(l.pending) == 0
	if fired && !inline {
		l.pending = append(l.pending, func() { done(firedErr) })
	}
	l.mu.Unlock()
	if inline {
		done(firedErr)
	}
}

// drain runs, as the loop would, the completions of everything staged
// so far, once the engine has committed what reached it.
func (l *loopedStore) drain() {
	_ = l.engine.Sync() // a barrier only: a broken engine has completed its ops already
	l.mu.Lock()
	run := l.pending
	l.pending = nil
	l.mu.Unlock()
	for _, fn := range run {
		fn()
	}
}

// persistRig is one coordinator on a hand-driven env over an engine it
// can close and reopen.
type persistRig struct {
	t    *testing.T
	cfg  Config
	env  *nodetest.Env
	co   *Coordinator
	disk *loopedStore
	open func() store.Store            // opens (or reopens) the engine
	wrap func(store.Store) store.Store // interposes on it, when non-nil
}

// newPersistRig boots a coordinator over engine ("memory" keeps its
// contents across restarts in the process; "wal" is closed and reopened
// from its directory). wrap, when non-nil, interposes on the engine.
func newPersistRig(t *testing.T, engine string, cfg Config, wrap func(store.Store) store.Store) *persistRig {
	t.Helper()
	cfg.Coordinators = []proto.NodeID{"co"}
	cfg.DBCost = db.CostModel{PerOp: time.Nanosecond}
	cfg.HeartbeatPeriod, cfg.HeartbeatTimeout = 100*time.Millisecond, 24*time.Hour
	r := &persistRig{t: t, cfg: cfg, env: nodetest.NewEnv("co", nil), wrap: wrap}
	switch engine {
	case "memory":
		mem := store.NewMemory()
		r.open = func() store.Store { return mem }
	case "wal":
		dir := t.TempDir()
		r.open = func() store.Store {
			w, err := store.OpenWAL(dir, store.WALOptions{SegmentBytes: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
	default:
		t.Fatalf("engine %q", engine)
	}
	t.Cleanup(func() { _ = r.disk.Close() })
	r.start()
	return r
}

func (r *persistRig) start() {
	engine := r.open()
	r.disk = &loopedStore{Store: engine, engine: engine}
	if r.wrap != nil {
		r.disk.Store = r.wrap(engine)
	}
	r.env.Reboot(r.disk)
	r.co = New(r.cfg)
	r.co.Start(r.env)
}

// restart ends the incarnation, closes the engine and boots a new
// coordinator over what it left behind.
func (r *persistRig) restart() {
	r.t.Helper()
	r.co.Stop()
	if err := r.disk.Close(); err != nil {
		r.t.Fatal(err)
	}
	r.start()
}

// deliver hands one message to the coordinator, lets its database-cost
// timers fire and its write completions run, and returns what it sent.
func (r *persistRig) deliver(from proto.NodeID, msg proto.Message) []proto.Message {
	r.co.Receive(from, msg)
	r.disk.drain()
	r.env.Advance(time.Millisecond)
	return r.env.Take()
}

// table returns the job table as a whole-record store would reload it:
// every record through the whole-record encoding and back, an
// assignment that cannot survive a crash reset to pending.
func (r *persistRig) table() map[proto.CallID]*proto.JobRecord {
	r.t.Helper()
	out := map[proto.CallID]*proto.JobRecord{}
	for _, rec := range r.co.DB().PeekAll() {
		back, err := proto.DecodeJob(proto.EncodeJob(rec))
		if err != nil {
			r.t.Fatal(err)
		}
		if back.State == proto.TaskOngoing {
			back.State = proto.TaskPending
		}
		out[back.Call] = back
	}
	return out
}

// checkLayout asserts the store holds the one layout: every header
// loads beside the blobs it names and decodes, with exactly the
// payloads under proto.BlobMin inline — and Sweep finds no blob that no
// header names.
func (r *persistRig) checkLayout() {
	r.t.Helper()
	var dec proto.Decoder
	for _, key := range r.disk.Keys(jobs.Headers) {
		e, _ := jobs.Load(r.disk, key[len(jobs.Headers):])
		rec, err := dec.DecodeJobHeader(e.Data, e.Blobs[0], e.Blobs[1])
		if err != nil {
			r.t.Fatalf("%s: %v", key, err)
		}
		for i, p := range [][]byte{rec.Params, rec.Output} {
			if (len(p) >= proto.BlobMin) != (e.Blobs[i] != nil) {
				r.t.Fatalf("%s: a %d B payload %s", key, len(p), map[bool]string{true: "in a blob", false: "inline"}[e.Blobs[i] != nil])
			}
		}
	}
	blobs := r.disk.Keys(jobs.Blobs)
	jobs.Sweep(r.env, "")
	if left := r.disk.Keys(jobs.Blobs); len(left) != len(blobs) {
		r.t.Fatalf("blobs no header names: %v of %v", len(blobs)-len(left), blobs)
	}
}

func payload(rng *rand.Rand, size int) []byte {
	p := make([]byte, size)
	rng.Read(p)
	return p
}

var payloadSizes = []int{0, 1, proto.BlobMin - 1, proto.BlobMin, 64 << 10}

// The split layout against its oracle: random submit / duplicate submit
// / assign / result / requeue / replica-update sequences over payloads
// on both sides of the blob line, on the memory store and a real WAL,
// restarting at random points. After every restart
// the reloaded job table must equal what a store of whole records —
// the layout this one replaced — would have reloaded.
//
// The oracle knows collection: an honest client polls — fetching what
// is finished, acknowledging on its next Poll what it fetched — so
// finished calls leave the table, and the restarts come as kills
// inside a collection as well: with the power going after the first
// few operations of a flush (between the watermark and the deletes,
// between two deletes), with the deletes staged and their completions
// never run (between the blobs and their header), and with a delete
// failing once (store.WithFaults). After every restart, whatever the
// kill, no call the session acknowledged is handed to a server or sent
// to the client again, every result it has not acknowledged is served
// byte for byte, a call that is gone from the disk is at or below the
// watermark that survived, what a cut-short collection left behind is
// collected again by the next Poll, and no blob is left without its
// header.
func TestPersistedJobTableMatchesWholeRecordOracle(t *testing.T) {
	for _, engine := range []string{"memory", "wal"} {
		for seed := int64(1); seed <= 4; seed++ {
			// "binary" names the codec of these cells from when a gob
			// twin ran beside each; kept so their test IDs did not change
			// when the twins went.
			t.Run(fmt.Sprintf("%s/binary/seed%d", engine, seed), func(t *testing.T) {
				runPersistProperty(t, engine, seed)
			})
		}
	}
}

// powerCut swallows every operation after the first left ones (armed
// by setting left >= 0): the process is about to die, and what it
// staged last never reached the disk.
type powerCut struct {
	store.Store
	left int
}

func (c *powerCut) gone() bool {
	if c.left < 0 {
		return false
	}
	if c.left > 0 {
		c.left--
		return false
	}
	return true
}

func (c *powerCut) WriteAsync(key string, value []byte, done func(error)) {
	if !c.gone() {
		c.Store.WriteAsync(key, value, done)
	}
}

func (c *powerCut) DeleteAsync(key string, done func(error)) {
	if !c.gone() {
		c.Store.DeleteAsync(key, done)
	}
}

// resultsIn returns the results of the one Results message in msgs.
func resultsIn(t *testing.T, msgs []proto.Message) []proto.Result {
	t.Helper()
	var out *proto.Results
	for _, m := range msgs {
		if res, ok := m.(*proto.Results); ok {
			if out != nil {
				t.Fatalf("two Results in %v", msgs)
			}
			out = res
		}
	}
	if out == nil {
		t.Fatalf("no Results in %v", msgs)
	}
	return out.Results
}

func runPersistProperty(t *testing.T, engine string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var (
		plan *store.FaultPlan
		cut  *powerCut
	)
	r := newPersistRig(t, engine, Config{MaxTasksPerAck: 3}, func(s store.Store) store.Store {
		plan = &store.FaultPlan{}
		cut = &powerCut{Store: store.WithFaults(s, plan), left: -1}
		return cut
	})
	servers := []proto.NodeID{"sv0", "sv1"}
	size := func() int { return payloadSizes[rng.Intn(len(payloadSizes))] }
	type assignment struct {
		server proto.NodeID
		task   proto.TaskID
	}
	var (
		nextSeq     = 1
		outstanding []assignment
		restarts    int

		// The client: the results it holds, its watermark (every seq in
		// 1..ack fetched), and the highest Ack it has sent.
		fetched   = map[proto.RPCSeq][]byte{}
		ack, sent proto.RPCSeq
		collected int // calls the coordinator let go, over all incarnations
		redone    int // of which a kill made it collect again
	)
	call := func(seq int) proto.CallID { return proto.CallID{User: "u", Session: 1, Seq: proto.RPCSeq(seq)} }

	// poll is one round of the client's: acknowledge what the last
	// rounds fetched, take what is new.
	poll := func() {
		t.Helper()
		before := r.co.StatsNow().Collected
		msgs := r.deliver("cl", &proto.Poll{User: "u", Session: 1, Ack: ack})
		sent = ack
		collected += r.co.StatsNow().Collected - before
		for _, res := range resultsIn(t, msgs) {
			seq := res.Call.Seq
			if seq <= sent {
				t.Fatalf("result %d sent again below the acknowledged watermark %d", seq, sent)
			}
			if rec, ok := r.co.DB().Peek(res.Call); !ok || !bytes.Equal(rec.Output, res.Output) {
				t.Fatalf("result %d: %d bytes sent, the record holds %s", seq, len(res.Output), brief(rec))
			}
			if old, ok := fetched[seq]; ok && !bytes.Equal(old, res.Output) {
				t.Fatalf("result %d changed between two polls", seq)
			}
			fetched[seq] = append([]byte{}, res.Output...) // never nil: an empty result is a result
		}
		for fetched[ack+1] != nil {
			ack++
		}
	}

	check := func() {
		t.Helper()
		if rng.Intn(2) == 0 {
			poll() // fetch, then acknowledge: the kill finds a collection under way
			poll()
		}
		gone := map[proto.RPCSeq]bool{} // let go by this incarnation, as far as its memory goes
		for seq := proto.RPCSeq(1); seq <= r.co.Collected("u", 1); seq++ {
			if _, ok := r.co.DB().Peek(proto.CallID{User: "u", Session: 1, Seq: seq}); !ok && fetched[seq] != nil {
				gone[seq] = true
			}
		}
		switch kill := rng.Intn(4); kill {
		case 0: // a clean stop: what is staged gets flushed
		case 1: // the power goes a few operations into the flush
			cut.left = rng.Intn(5)
			r.env.Advance(flushBeats * r.cfg.HeartbeatPeriod)
		case 2: // the flush is staged, its completions never run
			r.env.Advance(flushBeats * r.cfg.HeartbeatPeriod)
		case 3: // one delete of the flush fails
			plan.TornWrites(2 + rng.Intn(3)) // past the session's watermark, the flush's first write
			r.settle()
		}
		want := r.table()
		r.restart()
		restarts++
		got := map[proto.CallID]*proto.JobRecord{}
		for _, rec := range r.co.DB().PeekAll() {
			got[rec.Call] = rec
		}
		w := r.co.Collected("u", 1)
		if w > sent {
			t.Fatalf("restart %d: watermark %d, the session never acknowledged more than %d", restarts, w, sent)
		}
		for id, rec := range want {
			if g := got[id]; g == nil || !reflect.DeepEqual(g, rec) {
				t.Fatalf("restart %d: %s reloaded as\n %s\noracle\n %s", restarts, id, brief(g), brief(rec))
			}
		}
		for id, g := range got {
			if want[id] != nil {
				continue
			}
			// A collection the kill cut short: the record is back, as it
			// finished, and the session's next Poll lets it go again.
			if !gone[id.Seq] || g.State != proto.TaskFinished || !bytes.Equal(g.Output, fetched[id.Seq]) {
				t.Fatalf("restart %d: %s reloaded as %s, which the oracle does not hold", restarts, id, brief(g))
			}
			redone++
		}
		for seq := range gone {
			if got[call(int(seq))] == nil && seq > w {
				t.Fatalf("restart %d: call %d is gone from the disk above the watermark %d that survived: it reads as never seen", restarts, seq, w)
			}
		}
		// The relaunched client's first poll: everything it had not
		// acknowledged, byte for byte; nothing it had.
		served := map[proto.RPCSeq][]byte{}
		msgs := r.deliver("cl", &proto.Poll{User: "u", Session: 1, Ack: sent})
		for _, res := range resultsIn(t, msgs) {
			served[res.Call.Seq] = res.Output
		}
		for id, rec := range want {
			if out, ok := served[id.Seq]; rec.State == proto.TaskFinished && id.Seq > sent && (!ok || !bytes.Equal(out, rec.Output)) {
				t.Fatalf("restart %d: unacknowledged result %d served as %d bytes (present %v), want %d", restarts, id.Seq, len(out), ok, len(rec.Output))
			}
			delete(served, id.Seq)
		}
		if len(served) != 0 {
			t.Fatalf("restart %d: results served that the oracle does not hold unacknowledged: %v", restarts, slices.Collect(maps.Keys(served)))
		}
		r.settle()
		// That poll leaves nothing finished at or below the watermark:
		// not what the kill brought back, and not what the old
		// incarnation kept for a successor that had yet to hear of it (a
		// replica update makes it a ring of two; the new one boots alone).
		left := 0
		for id, rec := range want {
			if rec.State != proto.TaskFinished || id.Seq > sent {
				left++
			}
		}
		if n := r.co.DB().Len(); n != left {
			t.Fatalf("restart %d: %d records after the first poll, the oracle holds %d above the watermark or unfinished", restarts, n, left)
		}
		for _, line := range r.env.Logs() {
			if strings.Contains(line, "corrupt") || strings.Contains(line, "persist job") {
				t.Fatalf("restart %d: %s", restarts, line)
			}
		}
		r.checkLayout()
	}

	for step := 0; step < 400; step++ {
		switch op := rng.Intn(110); {
		case op < 25: // submit
			r.deliver("cl", &proto.Submit{Call: call(nextSeq), Service: "svc", Params: payload(rng, size()),
				ExecTime: time.Second, ResultSize: 8})
			nextSeq++
		case op < 32 && nextSeq > 1: // duplicate submit, other bytes: must change nothing
			r.deliver("cl", &proto.Submit{Call: call(1 + rng.Intn(nextSeq-1)), Service: "svc", Params: payload(rng, size())})
		case op < 55: // assign
			sv := servers[rng.Intn(len(servers))]
			for _, m := range r.deliver(sv, &proto.Heartbeat{From: sv, Role: proto.RoleServer, Capacity: 1 + rng.Intn(3), WantWork: true}) {
				if ack, ok := m.(*proto.HeartbeatAck); ok {
					for _, ta := range ack.Tasks {
						if fetched[ta.Task.Call.Seq] != nil {
							t.Fatalf("step %d: call %d handed to %s after the client fetched its result", step, ta.Task.Call.Seq, sv)
						}
						outstanding = append(outstanding, assignment{sv, ta.Task})
					}
				}
			}
		case op < 78 && len(outstanding) > 0: // result (possibly of an assignment a restart forgot)
			i := rng.Intn(len(outstanding))
			if rng.Intn(2) == 0 { // mostly in order, so that the client's watermark moves
				i = 0
			}
			o := outstanding[i]
			outstanding = slices.Delete(outstanding, i, i+1)
			res := &proto.TaskResult{From: o.server, Task: o.task, Output: payload(rng, size())}
			if rng.Intn(8) == 0 {
				res.Err = "service failed"
			}
			r.deliver(o.server, res)
		case op < 84: // requeue: the server reports holding nothing, past the grace period
			r.env.Advance(time.Second)
			sv := servers[rng.Intn(len(servers))]
			r.deliver(sv, &proto.ServerSync{From: sv})
		case op < 94: // replica update: new and known calls, any state, params carried or withheld
			up := &proto.ReplicaUpdate{From: "co2", Epoch: 1, Round: uint64(step)}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				rec := proto.JobRecord{Call: call(1 + rng.Intn(nextSeq+2)), Service: "svc",
					State: proto.TaskState(rng.Intn(3)), Instance: uint32(rng.Intn(3))}
				if rng.Intn(3) > 0 {
					rec.Params = payload(rng, size())
				}
				if rec.State == proto.TaskFinished {
					rec.Output, rec.Server = payload(rng, size()), "sv9"
				}
				up.Jobs = append(up.Jobs, rec)
			}
			r.deliver("co2", up)
		case op < 97:
			check()
		case op < 100: // a replication round to the successor a replica update introduced, acknowledged
			r.co.ReplicateNow()
			r.env.Advance(time.Millisecond)
			for _, m := range r.env.Take() {
				if up, ok := m.(*proto.ReplicaUpdate); ok {
					before := r.co.StatsNow().Collected
					r.deliver("co2", &proto.ReplicaAck{From: "co2", Epoch: up.Epoch, Round: up.Round})
					collected += r.co.StatsNow().Collected - before // what waited for this ack
				}
			}
		default:
			poll()
		}
	}
	check()
	if restarts < 2 {
		t.Fatalf("only %d restarts: the sequence did not exercise recovery", restarts)
	}
	if collected == 0 {
		t.Fatalf("nothing was collected over %d acknowledged calls: the sequence did not exercise collection", sent)
	}
	t.Logf("%d restarts, watermark %d, %d calls collected, %d of them twice", restarts, sent, collected, redone)
}

func brief(r *proto.JobRecord) string {
	if r == nil {
		return "<absent>"
	}
	return fmt.Sprintf("state %v instance %d server %q err %q service %q params %d B (nil %v) output %d B (nil %v)",
		r.State, r.Instance, r.Server, r.ResultErr, r.Service, len(r.Params), r.Params == nil, len(r.Output), r.Output == nil)
}

// submitBig pushes one 64 KiB call through submit and returns it.
func (r *persistRig) submitBig(seq int) *proto.Submit {
	sub := &proto.Submit{Call: call(seq), Service: "echo", Params: payload(r.env.Rand(), 64<<10), ExecTime: time.Second}
	r.deliver("cl", sub)
	return sub
}

func (r *persistRig) persistErrors(part string) float64 {
	v, _ := r.cfg.Obs.Registry().Value("rpcv_coord_persist_errors_total", obs.L("node", "co"), obs.L("part", part))
	return v
}

// A job header the coordinator cannot decode — here one an older build
// wrote, its version byte 1 — is logged and deleted at boot: the key is
// gone, and the next boot has nothing to log. The blob it named, which
// this build cannot read the name of, is swept as an orphan at that
// next boot.
func TestUndecodableJobHeaderIsDeletedAtBoot(t *testing.T) {
	for _, engine := range []string{"memory", "wal"} {
		t.Run(engine, func(t *testing.T) {
			r := newPersistRig(t, engine, Config{}, nil)
			r.submitBig(1)
			r.deliver("cl", &proto.Submit{Call: call(2), Service: "echo", Params: []byte("p")})
			key := jobKey(call(1))
			header, ok := r.disk.Read(key)
			if !ok || len(r.disk.Keys(jobs.Blobs)) != 1 {
				t.Fatalf("call 1's header stored %v, %d blobs", ok, len(r.disk.Keys(jobs.Blobs)))
			}
			old := append([]byte(nil), header...)
			old[1] = 1 // the codec version
			if err := r.disk.Write(key, old); err != nil {
				t.Fatal(err)
			}

			corrupt := func() int {
				n := 0
				for _, l := range r.env.Logs() {
					if strings.Contains(l, "corrupt job record") {
						n++
					}
				}
				return n
			}
			r.restart()
			r.disk.drain()
			if n := corrupt(); n != 1 {
				t.Fatalf("%d corrupt job records logged at the first boot, want 1: %q", n, r.env.Logs())
			}
			if _, ok := r.disk.Read(key); ok {
				t.Fatal("the undecodable header is still stored")
			}
			if _, ok := r.co.DB().Peek(call(2)); !ok {
				t.Fatal("the intact neighbour was not recovered")
			}
			r.restart()
			r.disk.drain()
			if n := corrupt(); n != 1 {
				t.Fatalf("the second boot logged %d more corrupt job records: %q", n-1, r.env.Logs())
			}
			if blobs := r.disk.Keys(jobs.Blobs); len(blobs) != 0 {
				t.Fatalf("blobs left of the deleted header: %v", blobs)
			}
		})
	}
}

// A params blob torn on its way into a group-commit engine — half the
// value reaches the log, the failure is reported only after the header
// went out with the same commit — is counted, and on the next boot the
// record is skipped as corrupt (the header measured 64 KiB, the blob is
// 32) exactly as an undecodable record is: the coordinator does not
// know the call, the client's resync resends it, and it completes.
func TestTornBlobIsSkippedAndTheCallCompletesAfterResync(t *testing.T) {
	plan := &store.FaultPlan{}
	r := newPersistRig(t, "wal", Config{Obs: obs.New("co")}, func(s store.Store) store.Store { return store.WithFaults(s, plan) })
	intact := r.submitBig(1)
	plan.TornWrites(1) // the next durable write: call 2's params blob
	torn := r.submitBig(2)
	if got := r.persistErrors("params"); got != 1 {
		t.Fatalf("persist errors{part=params} = %v, want 1", got)
	}
	if blob, _ := r.disk.Read(jobs.Blobs + torn.Call.String() + "/p"); len(blob) != 32<<10 {
		t.Fatalf("the torn blob is %d bytes, want half of 64 KiB", len(blob))
	}

	r.restart()
	if _, ok := r.co.DB().Peek(torn.Call); ok {
		t.Fatal("a record whose blob is half there was loaded")
	}
	if rec, ok := r.co.DB().Peek(intact.Call); !ok || !bytes.Equal(rec.Params, intact.Params) {
		t.Fatal("the intact neighbour was not recovered")
	}
	if !slices.ContainsFunc(r.env.Logs(), func(l string) bool {
		return strings.Contains(l, "corrupt job record") && strings.Contains(l, torn.Call.String())
	}) {
		t.Fatalf("the skip was not logged: %q", r.env.Logs())
	}

	// The client's resync: the reply does not know seq 2, so it resends.
	sent := r.deliver("cl", &proto.SyncRequest{User: "u", Session: 1, MaxSeq: 2, HaveLog: true})
	if reply := sent[len(sent)-1].(*proto.SyncReply); slices.Contains(reply.Known, 2) || !slices.Contains(reply.Known, 1) {
		t.Fatalf("sync reply knows %v, want 1 and not 2", reply.Known)
	}
	r.deliver("cl", torn)
	var tasks []proto.TaskAssignment
	for _, m := range r.deliver("sv0", &proto.Heartbeat{From: "sv0", Role: proto.RoleServer, Capacity: 4, WantWork: true}) {
		if ack, ok := m.(*proto.HeartbeatAck); ok {
			tasks = append(tasks, ack.Tasks...)
		}
	}
	if len(tasks) != 2 {
		t.Fatalf("assigned %d tasks after the resend, want both calls", len(tasks))
	}
	for _, ta := range tasks {
		r.deliver("sv0", &proto.TaskResult{From: "sv0", Task: ta.Task, Output: ta.Params})
	}
	r.restart() // and the completed call is durable in the one layout
	sent = r.deliver("cl", &proto.Poll{User: "u", Session: 1})
	res := sent[len(sent)-1].(*proto.Results)
	if len(res.Results) != 2 || !bytes.Equal(res.Results[1].Output, torn.Params) {
		t.Fatalf("poll after the resend returned %d results", len(res.Results))
	}
	r.checkLayout()
}

// A blob write that fails before the header is written is never
// followed by a header referencing it: the header is withheld, the
// failure is counted by part, and the call's next transition writes the
// blob again ahead of its header. A failed header is counted too.
func TestFailedBlobWriteWithholdsTheHeader(t *testing.T) {
	plan := &store.FaultPlan{}
	r := newPersistRig(t, "memory", Config{Obs: obs.New("co")}, func(s store.Store) store.Store { return store.WithFaults(s, plan) })
	plan.TornWrites(1) // the params blob; the memory engine reports it at once
	sub := r.submitBig(1)
	if _, ok := r.disk.Read(jobs.Headers + sub.Call.String()); ok {
		t.Fatal("a header was written after its params blob failed")
	}
	if p, h := r.persistErrors("params"), r.persistErrors("header"); p != 1 || h != 0 {
		t.Fatalf("persist errors: params %v header %v, want 1 and 0", p, h)
	}
	// The handler acked regardless (the behaviour the counter makes
	// visible), and the assignment retries the blob before its header.
	r.deliver("sv0", &proto.Heartbeat{From: "sv0", Role: proto.RoleServer, Capacity: 1, WantWork: true})
	r.checkLayout()
	r.restart()
	if rec, ok := r.co.DB().Peek(sub.Call); !ok || !bytes.Equal(rec.Params, sub.Params) {
		t.Fatal("the retried blob and its header did not recover the call")
	}

	plan.FailCommits(1) // sticky: the output blob fails, so no header follows
	r.deliver("sv0", &proto.TaskResult{From: "sv0", Task: proto.TaskID{Call: sub.Call, Instance: 2}, Output: sub.Params})
	if o, h := r.persistErrors("output"), r.persistErrors("header"); o != 1 || h != 0 {
		t.Fatalf("persist errors: output %v header %v, want 1 and 0", o, h)
	}
	r.deliver("cl", &proto.Submit{Call: call(2), Service: "echo", Params: []byte("inline")})
	if h := r.persistErrors("header"); h != 1 {
		t.Fatalf("persist errors{part=header} = %v after a failed inline persist, want 1", h)
	}
}

// Blobs no header names are never read, and recovery deletes them: a
// blob without a header, an output blob that became durable before the
// header saying the job finished (the header on disk still says
// ongoing), and a key beside a call's blobs that is no payload of the
// layout. The params blob its header names stays.
func TestOrphanBlobsAreSwept(t *testing.T) {
	r := newPersistRig(t, "wal", Config{}, nil)
	sub := r.submitBig(1)
	r.deliver("sv0", &proto.Heartbeat{From: "sv0", Role: proto.RoleServer, Capacity: 1, WantWork: true})
	orphan := payload(r.env.Rand(), 64<<10)
	orphans := []string{
		jobs.Blobs + sub.Call.String() + "/o",    // landed; its header did not
		jobs.Blobs + call(7).String() + "/p",     // no header at all
		jobs.Blobs + call(7).String() + "/o",     //
		jobs.Blobs + sub.Call.String() + "/junk", // not a payload of the layout
	}
	for _, key := range orphans {
		if err := r.disk.Write(key, orphan); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 { // the second boot reads what the first one's deletes left
		r.restart()
		r.disk.drain()
		if n := r.co.DB().Len(); n != 1 {
			t.Fatalf("loaded %d records, want the one with a header", n)
		}
		rec, _ := r.co.DB().Peek(sub.Call)
		if rec.State != proto.TaskPending || rec.Output != nil || !bytes.Equal(rec.Params, sub.Params) {
			t.Fatalf("recovered %s, want the pending call without an output", brief(rec))
		}
		if got, want := r.disk.Keys(jobs.Blobs), []string{jobs.Blobs + sub.Call.String() + "/p"}; !slices.Equal(got, want) {
			t.Fatalf("blobs after recovery: %v, want %v", got, want)
		}
	}
	for _, line := range r.env.Logs() {
		if strings.Contains(line, "corrupt") {
			t.Fatal(line)
		}
	}
}

// A header rewritten without a blob it named — a replica's finished
// copy, sent without its params, over a pending 64 KiB call — takes the
// blob with it at once: the disk holds no blob that nothing names, and
// none is left for a restart to sweep.
func TestRewrittenHeaderTakesTheBlobItNoLongerNames(t *testing.T) {
	r := newPersistRig(t, "memory", Config{}, nil)
	sub := r.submitBig(1)
	finished := proto.JobRecord{Call: sub.Call, Service: "echo", State: proto.TaskFinished, Instance: 1, Output: []byte("r"), Server: "sv9"}
	r.deliver("co2", &proto.ReplicaUpdate{From: "co2", Epoch: 1, Round: 1, Jobs: []proto.JobRecord{finished}})
	if rec, _ := r.co.DB().Peek(sub.Call); rec.State != proto.TaskFinished || rec.Params != nil {
		t.Fatalf("stored %s, want the replica's finished copy without params", brief(rec))
	}
	if blobs := r.disk.Keys(jobs.Blobs); len(blobs) != 0 {
		t.Fatalf("blobs left beside a header that names none: %v", blobs)
	}
	r.checkLayout()
}

// What the split is for: the header written on each transition of a
// 64 KiB call is a hundred-odd bytes, each payload reaches the store
// once, and the store and the job table hold one slice between them.
func TestLargeCallWritesEachPayloadOnce(t *testing.T) {
	writes := map[string]int{}
	counting := func(s store.Store) store.Store { return &countingStore{Store: s, bytes: writes} }
	r := newPersistRig(t, "memory", Config{}, counting)
	sub := r.submitBig(1)
	var task proto.TaskAssignment
	for _, m := range r.deliver("sv0", &proto.Heartbeat{From: "sv0", Role: proto.RoleServer, Capacity: 1, WantWork: true}) {
		if ack, ok := m.(*proto.HeartbeatAck); ok {
			task = ack.Tasks[0]
		}
	}
	out := payload(r.env.Rand(), 64<<10)
	r.deliver("sv0", &proto.TaskResult{From: "sv0", Task: task.Task, Output: out})

	id := sub.Call.String()
	if p, o := writes[jobs.Blobs+id+"/p"], writes[jobs.Blobs+id+"/o"]; p != 64<<10 || o != 64<<10 {
		t.Fatalf("blob bytes written: params %d, output %d, want 64 KiB once each", p, o)
	}
	if h := writes[jobs.Headers+id]; h == 0 || h > 3*200 {
		t.Fatalf("three header writes took %d bytes, want a few hundred", h)
	}
	rec, _ := r.co.DB().Peek(sub.Call)
	stored, _ := r.disk.Read(jobs.Blobs + id + "/p")
	if &stored[0] != &rec.Params[0] || &rec.Params[0] != &sub.Params[0] {
		t.Fatal("the store, the job table and the message do not share one params slice")
	}
	stored, _ = r.disk.Read(jobs.Blobs + id + "/o")
	if &stored[0] != &rec.Output[0] || &rec.Output[0] != &out[0] {
		t.Fatal("the store, the job table and the message do not share one output slice")
	}
}

// countingStore sums the value bytes written per key.
type countingStore struct {
	store.Store
	bytes map[string]int
}

func (c *countingStore) Write(key string, value []byte) error {
	c.bytes[key] += len(value)
	return c.Store.Write(key, value)
}

func (c *countingStore) WriteAsync(key string, value []byte, done func(error)) {
	c.bytes[key] += len(value)
	c.Store.WriteAsync(key, value, done)
}
