package rt

import (
	"errors"
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

// StallLoop freezes the loop (posted work waits out the stall) while
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
