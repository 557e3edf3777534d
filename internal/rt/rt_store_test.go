package rt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/coordinator"
	"rpcv/internal/msglog"
	"rpcv/internal/node/nodetest"
	"rpcv/internal/proto"
	"rpcv/internal/server"
	"rpcv/internal/store"
)

// TestWALStorePersistsAcrossRuntimes: a value written by one runtime
// incarnation must be readable by the next over the same directory —
// here with the vestigial Store: "wal" spelled out, as bench/ does;
// TestFileDiskPersistsAcrossRuntimes leaves it empty.
func TestWALStorePersistsAcrossRuntimes(t *testing.T) {
	dir := t.TempDir()
	a := &echo{}
	ra, err := Start(Config{ID: "a", Handler: a, DiskDir: dir, Store: "wal", Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	ra.Do(func() {
		if err := a.env.Disk().Write("msglog/00001", []byte("payload")); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	ra.Close()

	b := &echo{}
	rb, err := Start(Config{ID: "a", Handler: b, DiskDir: dir, Store: "wal", Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	rb.Do(func() {
		v, ok := b.env.Disk().Read("msglog/00001")
		if !ok || string(v) != "payload" {
			t.Errorf("read back = %q, %v", v, ok)
		}
		if err := b.env.Disk().Delete("msglog/00001"); err != nil {
			t.Errorf("delete: %v", err)
		}
	})
}

// A staged write's completion reaches its loop without an allocation:
// the pooled asyncOp carries it, as a function bound once on the loop's
// handoff queue, from the WAL's committer back to the loop.
func TestStagedCompletionAllocatesNothing(t *testing.T) {
	if raceBuild {
		t.Skip("allocation guard: the race detector's sync.Pool drops entries")
	}
	r, err := Start(Config{ID: "a", Handler: &echo{}, DiskDir: t.TempDir(), Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	disk := r.loop.disk
	val := []byte("a 64-byte value, as the coordinator's job headers roughly are....")
	errs := make(chan error, 1)
	done := func(err error) { errs <- err }
	stage := func() { disk.WriteAsync("coord/job/u/1/1", val, done) }
	write := func() {
		r.Do(stage)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for range 10 {
		write()
	}
	if n := testing.AllocsPerRun(100, write); n != 0 {
		t.Fatalf("a staged write through the loop's disk allocates %v times, want 0", n)
	}
}

// heldStore keeps staging order but completes a staged write only when
// the next one is staged: the held one first, then the new one at once,
// before its staging call returns — a completion that beats its staging
// call back to the loop while an earlier one is still on its way.
type heldStore struct {
	store.Store
	held func(error)
}

func (h *heldStore) WriteAsync(key string, value []byte, done func(error)) {
	err := h.Store.Write(key, value)
	if h.held == nil {
		h.held = func(error) { done(err) }
		return
	}
	h.held(nil)
	h.held = nil
	done(err)
}

// Completions reach the handler in staging order, even when the store
// reports a later one before its staging call has returned and an
// earlier one is still on the loop's handoff queue.
func TestStagedCompletionsKeepTheirOrder(t *testing.T) {
	r, err := Start(Config{ID: "a", Handler: &echo{}, Logf: quietLogf,
		WrapStore: func(s store.Store) store.Store { return &heldStore{Store: s} }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var order []string
	r.Do(func() {
		disk := r.loop.disk
		disk.WriteAsync("first", []byte("1"), func(error) { order = append(order, "first") })
		disk.WriteAsync("second", []byte("2"), func(error) { order = append(order, "second") })
	})
	var got []string
	waitFor(t, 5*time.Second, func() bool {
		r.Do(func() { got = slices.Clone(order) })
		return len(got) == 2
	})
	if !slices.Equal(got, []string{"first", "second"}) {
		t.Fatalf("completions ran in the order %v, want first then second", got)
	}
}

// TestStagedCompletionsNeverWaitOnTheMailbox: the loop stages writes on
// the WAL, then waits inside a synchronous Write while its mailbox is
// full. The committer completes the staged writes before it reaches the
// Write, so it must hand their completions back without waiting on the
// mailbox — the loop would wait for it for ever. A deadlock fails the
// test after a bounded wait instead of hanging it.
func TestStagedCompletionsNeverWaitOnTheMailbox(t *testing.T) {
	r, err := Start(Config{ID: "a", Handler: &echo{}, DiskDir: t.TempDir(), Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	const staged = 8
	completed := 0 // loop-only
	started, full, wrote := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	r.DoAsync(func() {
		stageThenWrite(r.disk, started, full, staged, func(error) { completed++ }, wrote)
	})
	<-started
	for filled := false; !filled; {
		select {
		case r.mailbox <- mail{fn: func() {}}:
		default:
			filled = true
		}
	}
	close(full)
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		// No Close: it would wait on the full mailbox too.
		t.Fatal("the loop is still inside Write after 10 s: the committer waits on the full mailbox")
	}
	defer r.Close()
	var got int
	waitFor(t, 5*time.Second, func() bool {
		r.Do(func() { got = completed })
		return got == staged
	})
	if got != staged {
		t.Fatalf("%d of %d staged completions ran", got, staged)
	}
}

// stageThenWrite waits until full closes, stages n writes with done as
// their completion, then writes synchronously and reports the outcome on
// wrote. Blocking the loop is the point: the test checks what reaches a
// loop that waits.
//
//rpcv:loop-safe
func stageThenWrite(d *loopDisk, started, full chan struct{}, n int, done func(error), wrote chan<- error) {
	close(started)
	<-full
	for i := range n {
		d.WriteAsync(fmt.Sprintf("staged/%d", i), []byte("v"), done)
	}
	wrote <- d.Write("sync", []byte("v"))
}

// filesEngineDir returns a directory as the removed files engine left
// one: a single <hex of the key>.log per key.
func filesEngineDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	name := hex.EncodeToString([]byte("coord/job/1")) + ".log"
	if err := os.WriteFile(filepath.Join(dir, name), []byte("rec"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestStoreEngineMismatchRefused: a runtime pointed at a directory the
// removed files engine wrote must fail Start instead of presenting an
// empty store to a recovering handler.
func TestStoreEngineMismatchRefused(t *testing.T) {
	if _, err := Start(Config{ID: "a", Handler: &echo{}, DiskDir: filesEngineDir(t), Logf: quietLogf}); err == nil {
		t.Fatal("the wal opened a files-engine directory")
	}
}

// TestStartRejectsUnknownStore: the vestigial Config.Store names the
// WAL or nothing. The removed engine, or a typo, fails Start rather
// than silently getting the WAL — and only matters with a DiskDir.
func TestStartRejectsUnknownStore(t *testing.T) {
	for _, name := range []string{"files", "memory", "wall"} {
		dir := filepath.Join(t.TempDir(), "disk")
		if _, err := Start(Config{ID: "a", Handler: &echo{}, DiskDir: dir, Store: name, Logf: quietLogf}); err == nil {
			t.Fatalf("Start accepted Store %q", name)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("Store %q: the refused Start created %s", name, dir)
		}
		r, err := Start(Config{ID: "a", Handler: &echo{}, Store: name, Logf: quietLogf})
		if err != nil {
			t.Fatalf("Store %q without a DiskDir: %v", name, err)
		}
		r.Close()
	}
}

// TestStartRejectsLoopsAboveOne: the vestigial Config.Loops names the
// one event loop or nothing. A request for more — which once
// partitioned the handler — fails Start rather than silently getting
// one loop, before a DiskDir is touched.
func TestStartRejectsLoopsAboveOne(t *testing.T) {
	for _, n := range []int{2, 8, -1} {
		dir := filepath.Join(t.TempDir(), "disk")
		_, err := Start(Config{ID: "a", Handler: &echo{}, DiskDir: dir, Loops: n, Logf: quietLogf})
		if err == nil || !strings.Contains(err.Error(), "exactly one event loop") {
			t.Fatalf("Start with Loops %d = %v, want a refusal that says why", n, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("Loops %d: the refused Start created %s", n, dir)
		}
	}
	for _, n := range []int{0, 1} {
		r, err := Start(Config{ID: "a", Handler: &echo{}, Loops: n, Logf: quietLogf})
		if err != nil {
			t.Fatalf("Loops %d: %v", n, err)
		}
		if got := len(r.LoopStats()); got != 1 {
			t.Fatalf("Loops %d: %d loop stats, want one", n, got)
		}
		r.Close()
	}
}

// TestWALCoordinatorKillAndRestartRecovery is the crash-recovery
// cluster test: a wal-backed coordinator is killed abruptly mid-load
// and restarted over the same store directory. No completed result may
// be lost — every submission still yields its result to the client,
// and the reopened store holds a finished, durable record for every
// call.
func TestWALCoordinatorKillAndRestartRecovery(t *testing.T) {
	runWALKillRestart(t, 1, 0)
}

// TestWALCoordinatorKillAndRestartRecoveryLargePayloads is the same
// crash with 16 KiB params echoed as results, from one client and from
// four: each job persists as a header plus two blobs, the blobs staged
// with WriteAsync ahead of the header, so a kill lands between a blob
// and its header as readily as anywhere else. Recovery must join every
// header with its blobs, and every result delivered after the restart
// must be the echo of its call's params.
func TestWALCoordinatorKillAndRestartRecoveryLargePayloads(t *testing.T) {
	runWALKillRestart(t, 1, 16<<10)
	runWALKillRestart(t, 4, 16<<10)
}

// runWALKillRestart drives one kill-and-restart recovery scenario with
// nClients one-session clients spread over distinct users, each call
// carrying payload bytes of params (0: none, and a constant result).
func runWALKillRestart(t *testing.T, nClients, payload int) {
	const (
		total   = 60
		beat    = 25 * time.Millisecond
		suspect = 250 * time.Millisecond
	)
	coordDir := t.TempDir()

	newCoord := func() *coordinator.Coordinator {
		return coordinator.New(coordinator.Config{
			Coordinators:     []proto.NodeID{"co"},
			HeartbeatPeriod:  beat,
			HeartbeatTimeout: suspect,
		})
	}
	coordCfg := func(h *coordinator.Coordinator) Config {
		return Config{ID: "co", ListenAddr: "127.0.0.1:0", Handler: h,
			DiskDir: coordDir, Logf: quietLogf}
	}
	rco, err := Start(coordCfg(newCoord()))
	if err != nil {
		t.Fatal(err)
	}
	dir := Directory{"co": rco.Addr()}

	services := map[string]server.Service{
		"noop": func(p []byte) ([]byte, error) {
			if payload > 0 {
				return p, nil
			}
			return []byte("ok"), nil
		},
	}
	// paramsOf is call (user c, seq)'s params: distinct per call, so an
	// echo delivered under the wrong call shows.
	paramsOf := func(c int, seq proto.RPCSeq) []byte {
		if payload == 0 {
			return nil
		}
		return bytes.Repeat([]byte{byte(c), byte(seq)}, payload/2)
	}
	var rsvs []*Runtime
	for _, id := range []proto.NodeID{"sv0", "sv1"} {
		sv := server.New(server.Config{
			Coordinators:     []proto.NodeID{"co"},
			HeartbeatPeriod:  beat,
			SuspicionTimeout: suspect,
			Services:         services,
		})
		rsv, err := Start(Config{ID: id, ListenAddr: "127.0.0.1:0", Handler: sv,
			Directory: dir, Logf: quietLogf})
		if err != nil {
			t.Fatal(err)
		}
		defer rsv.Close()
		rco.SetPeer(id, rsv.Addr())
		rsvs = append(rsvs, rsv)
	}

	var (
		mu      sync.Mutex
		results = map[proto.CallID]bool{}
	)
	perClient := total / nClients
	var rclis []*Runtime
	for c := 0; c < nClients; c++ {
		c := c
		user := proto.UserID(fmt.Sprintf("u%d", c))
		cli := client.New(client.Config{
			User:             user,
			Session:          proto.SessionID(c + 1),
			Coordinators:     []proto.NodeID{"co"},
			PollPeriod:       beat,
			SuspicionTimeout: suspect,
			Logging:          msglog.NonBlockingPessimistic,
			OnResult: func(res proto.Result, _ time.Time) {
				if payload > 0 && !bytes.Equal(res.Output, paramsOf(c, res.Call.Seq)) {
					t.Errorf("%s: result is not the echo of its params (%d bytes)", res.Call, len(res.Output))
				}
				mu.Lock()
				results[res.Call] = true
				mu.Unlock()
			},
		})
		id := proto.NodeID(fmt.Sprintf("cli%d", c))
		rcli, err := Start(Config{ID: id, ListenAddr: "127.0.0.1:0", Handler: cli,
			Directory: dir, Logf: quietLogf})
		if err != nil {
			t.Fatal(err)
		}
		defer rcli.Close()
		rco.SetPeer(id, rcli.Addr())
		rclis = append(rclis, rcli)
		rcli.Do(func() {
			for i := 0; i < perClient; i++ {
				cli.Submit("noop", paramsOf(c, proto.RPCSeq(i+1)), 0, 0)
			}
		})
	}

	resultCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(results)
	}
	// Let the grid complete part of the load, then kill the
	// coordinator abruptly (crash-stop: no draining beyond what a real
	// power cut through the group commit would allow).
	if !waitFor(t, 20*time.Second, func() bool { return resultCount() >= total/3 }) {
		t.Fatalf("grid never warmed up: %d results", resultCount())
	}
	completedBeforeCrash := resultCount()
	rco.Close()

	// Restart over the same store directory: recovery rebuilds the job
	// table from snapshot + log tail, re-queues interrupted work and
	// keeps finished records.
	rco2, err := Start(coordCfg(newCoord()))
	if err != nil {
		t.Fatalf("coordinator restart: %v", err)
	}
	for _, rcli := range rclis {
		rco2.SetPeer(rcli.ID(), rcli.Addr())
		rcli.SetPeer("co", rco2.Addr())
	}
	for i, rsv := range rsvs {
		rco2.SetPeer(rsv.ID(), rsv.Addr())
		rsvs[i].SetPeer("co", rco2.Addr())
	}

	if !waitFor(t, 60*time.Second, func() bool { return resultCount() >= total }) {
		t.Fatalf("after restart: %d/%d results (had %d before the crash) — completed work was lost",
			resultCount(), total, completedBeforeCrash)
	}
	rco2.Close()

	// The reopened store must account durably for every call — what the
	// next incarnation would recover from: a finished record with its
	// payloads, or, for a call whose result the session's Poll has
	// acknowledged, the session's collected watermark at or above it.
	st, err := store.OpenWAL(coordDir, store.WALOptions{})
	if err != nil {
		t.Fatalf("reopen coordinator store: %v", err)
	}
	defer func() { _ = st.Close() }() // the sweep below stages a delete only on a failure; nothing to flush
	finished := 0
	for c := 0; c < nClients; c++ {
		raw, _ := st.Read(fmt.Sprintf("coord/w/u%d/%d", c, c+1))
		w, _ := binary.Uvarint(raw)
		if w > uint64(perClient) {
			t.Fatalf("session u%d/%d: watermark %d above the %d calls it made", c, c+1, w, perClient)
		}
		finished += int(w)
	}
	jobs := msglog.Shelf{Headers: "coord/job/", Blobs: "coord/blob/", Suffixes: []string{"/p", "/o"}}
	var dec proto.Decoder
	for _, key := range st.Keys(jobs.Headers) {
		e, ok := jobs.Load(st, key[len(jobs.Headers):])
		if !ok {
			continue
		}
		rec, err := dec.DecodeJobHeader(e.Data, e.Blobs[0], e.Blobs[1])
		if rec == nil {
			t.Fatalf("corrupt job record %s after recovery: %v", key, err)
		}
		raw, _ := st.Read(fmt.Sprintf("coord/w/%s/%d", rec.Call.User, rec.Call.Session))
		if w, _ := binary.Uvarint(raw); uint64(rec.Call.Seq) <= w {
			// A collection the shutdown cut short: the blobs go first, the
			// header last, and the next boot finishes it off.
			continue
		}
		if err != nil {
			t.Fatalf("corrupt job record %s after recovery: %v", key, err)
		}
		if payload > 0 && (len(e.Blobs[0]) != payload || len(e.Blobs[1]) != payload) {
			t.Fatalf("%s: blobs of %d and %d B beside the header, want both payloads (%d B)", key, len(e.Blobs[0]), len(e.Blobs[1]), payload)
		}
		if rec.State == proto.TaskFinished {
			finished++
		}
	}
	if finished != total {
		t.Fatalf("store accounts for %d finished calls (records above a watermark, plus the watermarks), want %d", finished, total)
	}
	// No blob outlives its header: a sweep finds none to delete.
	blobs := len(st.Keys(jobs.Blobs))
	jobs.Sweep(nodetest.NewEnv("co", st), "")
	if n := len(st.Keys(jobs.Blobs)); n != blobs {
		t.Errorf("%d blobs have no header", blobs-n)
	}
}
