package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// openFaulty opens the WAL rooted at dir and wraps it with plan, the
// order every user of WithFaults follows.
func openFaulty(dir string, plan *FaultPlan) (Store, error) {
	inner, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		return nil, err
	}
	return WithFaults(inner, plan), nil
}

// The fault wrapper must interpose *after* the engine's own
// directory-refusal check: a files-engine directory opened through the
// fault path must still be refused. (This is the wrapper-ordering bug
// class: a wrapper that opens the directory itself, or that swallows
// open errors, would silently present an empty store over foreign
// data.)
func TestFaultWrapperPreservesEngineRefusal(t *testing.T) {
	if _, err := openFaulty(filesEngineDir(t), &FaultPlan{}); err == nil {
		t.Fatal("a files-engine directory must be refused even when fault-wrapped")
	}

	// The refusal is about the directory, not the wrapper: a wal
	// directory opens under the same wrapper, and reopens recovered.
	dir := t.TempDir()
	w, err := openFaulty(dir, &FaultPlan{})
	if err != nil {
		t.Fatalf("open wal with faults: %v", err)
	}
	if err := w.Write("k", []byte("v")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	w2, err := openFaulty(dir, &FaultPlan{})
	if err != nil {
		t.Fatalf("reopen wal with faults: %v", err)
	}
	defer func() { _ = w2.Close() }() // cleanup; recovery already verified
	if v, ok := w2.Read("k"); !ok || string(v) != "v" {
		t.Fatalf("recovered %q, %v; want \"v\", true", v, ok)
	}
}

func TestFaultPlanFailCommitsIsStickyUntilHeal(t *testing.T) {
	plan := &FaultPlan{}
	s := WithFaults(NewMemory(), plan)

	if err := s.Write("a", []byte("1")); err != nil {
		t.Fatalf("unfaulted write: %v", err)
	}
	plan.FailCommits(2) // next op fine, the one after fails
	if err := s.Write("b", []byte("2")); err != nil {
		t.Fatalf("write before countdown expires: %v", err)
	}
	if err := s.Write("c", []byte("3")); !errors.Is(err, ErrInjected) {
		t.Fatalf("2nd write: got %v, want ErrInjected", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync after failure must stay broken, got %v", err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("delete after failure must stay broken, got %v", err)
	}
	if !plan.Broken() {
		t.Fatal("plan should report broken")
	}

	plan.Heal()
	if err := s.Write("d", []byte("4")); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	st := plan.Stats()
	if st.FailedOps != 3 {
		t.Fatalf("FailedOps = %d, want 3", st.FailedOps)
	}
	// Reads are never faulted, and the failed write must not be visible.
	if _, ok := s.Read("c"); ok {
		t.Fatal("failed write leaked into the store")
	}
	if v, ok := s.Read("b"); !ok || string(v) != "2" {
		t.Fatalf("pre-fault write lost: %q, %v", v, ok)
	}
}

func TestFaultPlanTornWrite(t *testing.T) {
	plan := &FaultPlan{}
	s := WithFaults(NewMemory(), plan)

	plan.TornWrites(1)
	err := s.Write("k", []byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write: got %v, want ErrInjected", err)
	}
	// The prefix really landed — torn, not absent.
	if v, ok := s.Read("k"); !ok || string(v) != "01234" {
		t.Fatalf("torn value = %q, %v; want \"01234\"", v, ok)
	}
	// One-shot: the next write is whole.
	if err := s.Write("k", []byte("whole")); err != nil {
		t.Fatalf("write after torn: %v", err)
	}
	if v, _ := s.Read("k"); string(v) != "whole" {
		t.Fatalf("value = %q, want \"whole\"", v)
	}
	if st := plan.Stats(); st.TornOps != 1 {
		t.Fatalf("TornOps = %d, want 1", st.TornOps)
	}
}

func TestFaultPlanStallCommits(t *testing.T) {
	plan := &FaultPlan{}
	s := WithFaults(NewMemory(), plan)

	plan.StallCommits(30 * time.Millisecond)
	start := time.Now()
	if err := s.Write("k", []byte("v")); err != nil {
		t.Fatalf("stalled write: %v", err)
	}
	if took := time.Since(start); took < 30*time.Millisecond {
		t.Fatalf("write took %v, want >= 30ms", took)
	}
	plan.Heal()
	start = time.Now()
	if err := s.Write("k", []byte("v")); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	if took := time.Since(start); took > 25*time.Millisecond {
		t.Fatalf("healed write took %v, stall not cleared", took)
	}
	if st := plan.Stats(); st.StalledOps != 1 {
		t.Fatalf("StalledOps = %d, want 1", st.StalledOps)
	}
}

// A stall configured on the plan lands inside the WAL's group-commit
// completion path: async writes staged behind a stalled commit all
// wait, and everything staged before the sticky failure triggers is
// recovered on reopen — the slow-then-dead disk under live load.
func TestFaultWrapperStallsWALCommitterAndRecovers(t *testing.T) {
	dir := t.TempDir()
	plan := &FaultPlan{}
	s, err := openFaulty(dir, plan)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	plan.StallCommits(10 * time.Millisecond)
	const n = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	okOps := make(map[string]bool)
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		key := fmt.Sprintf("k%d", i)
		s.WriteAsync(key, []byte(key), func(err error) {
			mu.Lock()
			okOps[key] = err == nil
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	if took := time.Since(start); took < 10*time.Millisecond {
		t.Fatalf("async batch completed in %v, stall never applied", took)
	}

	// Now the disk "dies": next durable op fails and stays failed.
	plan.Heal()
	plan.FailCommits(1)
	if err := s.Write("late", []byte("late")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-death write: got %v, want ErrInjected", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Crash-restart without the wrapper: every acknowledged write is
	// there, the failed one is not.
	r, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer func() { _ = r.Close() }() // cleanup; recovery already verified
	for key, acked := range okOps {
		if !acked {
			t.Fatalf("stalled write %q was acked with error", key)
		}
		if v, ok := r.Read(key); !ok || string(v) != key {
			t.Fatalf("acked write %q lost across recovery (%q, %v)", key, v, ok)
		}
	}
	if _, ok := r.Read("late"); ok {
		t.Fatal("failed write must not surface after recovery")
	}
}
