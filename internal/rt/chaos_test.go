package rt

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rpcv/internal/proto"
	"rpcv/internal/store"
)

// WrapStore must interpose after the store opens (directory-refusal
// already run) and the injected faults must surface to loop code.
func TestWrapStoreInjectsFaults(t *testing.T) {
	plan := &store.FaultPlan{}
	a := &echo{}
	ra, err := Start(Config{
		ID: "a", Handler: a, DiskDir: t.TempDir(),
		Logf:      quietLogf,
		WrapStore: func(s store.Store) store.Store { return store.WithFaults(s, plan) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	var preErr, faultErr error
	ra.Do(func() { preErr = a.env.Disk().Write("k1", []byte("v1")) })
	plan.FailCommits(1)
	ra.Do(func() { faultErr = a.env.Disk().Write("k2", []byte("v2")) })
	if preErr != nil {
		t.Fatalf("pre-fault write: %v", preErr)
	}
	if !errors.Is(faultErr, store.ErrInjected) {
		t.Fatalf("faulted write: got %v, want ErrInjected", faultErr)
	}
	var v []byte
	var ok bool
	ra.Do(func() { v, ok = a.env.Disk().Read("k1") })
	if !ok || string(v) != "v1" {
		t.Fatalf("pre-fault value lost: %q, %v", v, ok)
	}
}

// A runtime with WrapStore set must still refuse a files-engine
// directory: the wrapper attaches after the refusal check.
func TestWrapStorePreservesEngineRefusal(t *testing.T) {
	wrapped := false
	_, err := Start(Config{
		ID: "a", Handler: &echo{}, DiskDir: filesEngineDir(t), Logf: quietLogf,
		WrapStore: func(s store.Store) store.Store {
			wrapped = true
			return store.WithFaults(s, &store.FaultPlan{})
		},
	})
	if err == nil {
		t.Fatal("a files-engine directory must be refused even with WrapStore set")
	}
	if wrapped {
		t.Fatal("WrapStore ran over a directory the wal refused")
	}
}

func TestSetClockOffsetSkewsEnvNow(t *testing.T) {
	a := &echo{}
	ra, err := Start(Config{ID: "a", Handler: a, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	const skew = 45 * time.Minute
	ra.SetClockOffset(skew)
	if got := ra.ClockOffset(); got != skew {
		t.Fatalf("ClockOffset = %v, want %v", got, skew)
	}
	var now time.Time
	ra.Do(func() { now = a.env.Now() })
	if d := time.Until(now); d < skew-time.Minute || d > skew+time.Minute {
		t.Fatalf("env.Now skew = %v, want ~%v", d, skew)
	}
	ra.SetClockOffset(0)
	ra.Do(func() { now = a.env.Now() })
	if d := time.Until(now); d > time.Minute || d < -time.Minute {
		t.Fatalf("env.Now after reset off by %v", d)
	}
}

// StallLoops freezes the loop (posted work waits out the stall) while
// the process and its listener stay up — stalled, not dead.
func TestStallLoopDelaysWorkButNotTCP(t *testing.T) {
	a := &echo{}
	ra, err := Start(Config{ID: "a", ListenAddr: "127.0.0.1:0", Handler: a, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	const stall = 300 * time.Millisecond
	start := time.Now()
	ra.StallLoops(stall)
	if err := ra.Ping(5 * time.Second); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if took := time.Since(start); took < stall {
		t.Fatalf("work ran after %v, want >= %v (loop not stalled)", took, stall)
	}

	// The listener kept accepting during the stall window: a peer's
	// pooled connection would have stayed up, only silence on top.
	b := &echo{}
	rb, err := Start(Config{ID: "b", ListenAddr: "127.0.0.1:0", Handler: b, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	ra.StallLoops(stall)
	rb.SetPeer("a", ra.Addr())
	rb.Do(func() { b.env.Send("a", &proto.Heartbeat{From: "b", Role: proto.RoleServer}) })
	deadline := time.Now().Add(5 * time.Second)
	for a.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if a.count() == 0 {
		t.Fatal("message sent during stall never delivered after stall elapsed")
	}
}

// wedgeLoop parks the calling goroutine until block closes. Wedging the
// loop is the entire point of the stalled-probe test, so the block is
// deliberate, not a latent bug for the loop discipline to flag.
//
//rpcv:loop-safe
func wedgeLoop(started, block chan struct{}) {
	close(started)
	<-block
}

// TestPingReportsStalledLoop: a wedged loop with a full mailbox fails
// its liveness probe — the probe behind /healthz — saying which half
// stalled, and the probe recovers once the loop drains.
func TestPingReportsStalledLoop(t *testing.T) {
	ra, err := Start(Config{ID: "a", Handler: &echo{}, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	started := make(chan struct{})
	block := make(chan struct{})
	ra.DoAsync(func() { wedgeLoop(started, block) })
	<-started
	if err := ra.Ping(100 * time.Millisecond); err == nil || !strings.Contains(err.Error(), "did not respond") {
		t.Fatalf("Ping on a wedged loop = %v, want it not to respond", err)
	}
	// Now saturate the mailbox so the probe fails at the accept phase,
	// not the execute phase.
	for full := false; !full; {
		select {
		case ra.loop.mailbox <- mail{fn: func() {}}:
		default:
			full = true
		}
	}
	if err := ra.Ping(100 * time.Millisecond); err == nil || !strings.Contains(err.Error(), "mailbox full") {
		t.Fatalf("Ping on a wedged loop with a full mailbox = %v, want it not to accept work", err)
	}
	close(block)
	if !waitFor(t, 5*time.Second, func() bool { return ra.Ping(time.Second) == nil }) {
		t.Error("Ping never recovered after the loop drained")
	}
}

// TestRandPerLoop: each runtime's loop owns a private rand.Rand seeded
// from Config.Seed — two runtimes in one process drawing at once share
// no generator (the race detector watches), the same seed yields the
// same stream and another seed another one.
func TestRandPerLoop(t *testing.T) {
	draw := func(seeds ...int64) [][]int64 {
		handlers := make([]*echo, len(seeds))
		runtimes := make([]*Runtime, len(seeds))
		for i, seed := range seeds {
			handlers[i] = &echo{}
			r, err := Start(Config{ID: "a", Handler: handlers[i], Seed: seed, Logf: quietLogf})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			runtimes[i] = r
		}
		out := make([][]int64, len(seeds))
		var wg sync.WaitGroup
		for i, r := range runtimes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 200 {
					r.Do(func() { out[i] = append(out[i], handlers[i].env.Rand().Int63()) })
				}
			}()
		}
		wg.Wait()
		return out
	}
	got := draw(42, 42, 43)
	if !slices.Equal(got[0], got[1]) {
		t.Error("two loops seeded alike drew different streams")
	}
	if slices.Equal(got[0], got[2]) {
		t.Error("loops seeded differently drew one stream")
	}
}
