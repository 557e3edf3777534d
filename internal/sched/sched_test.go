package sched

import (
	"slices"
	"testing"
	"time"

	"rpcv/internal/proto"
)

var t0 = time.Unix(1_000_000_000, 0).UTC()

func call(seq int) proto.CallID {
	return proto.CallID{User: "u", Session: 1, Seq: proto.RPCSeq(seq)}
}

func mustNew(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestNewAcceptsOnlyFCFS(t *testing.T) {
	for _, name := range []string{"", "fcfs"} {
		if _, err := New(Config{Policy: name}); err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
	}
	for _, name := range []string{"nope", "deadline"} {
		if _, err := New(Config{Policy: name}); err == nil {
			t.Fatalf("New(%q) accepted", name)
		}
	}
}

func TestFCFSPopsInArrivalOrder(t *testing.T) {
	e := mustNew(t, Config{})
	for i := 1; i <= 5; i++ {
		if !e.Enqueue(call(i), time.Second, time.Time{}, t0) {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	if e.Enqueue(call(3), time.Second, time.Time{}, t0) {
		t.Fatal("duplicate enqueue accepted")
	}
	for i := 1; i <= 5; i++ {
		got, ok := e.Pop("sv", t0)
		if !ok || got != call(i) {
			t.Fatalf("pop %d: got %v ok=%v", i, got, ok)
		}
	}
	if _, ok := e.Pop("sv", t0); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestUnqueueDropsLazily(t *testing.T) {
	e := mustNew(t, Config{})
	e.Enqueue(call(1), 0, time.Time{}, t0)
	e.Enqueue(call(2), 0, time.Time{}, t0)
	e.Unqueue(call(1))
	if e.Len() != 1 || e.Queued(call(1)) {
		t.Fatalf("unqueue did not drop: len=%d", e.Len())
	}
	got, ok := e.Pop("sv", t0)
	if !ok || got != call(2) {
		t.Fatalf("pop after unqueue: got %v ok=%v", got, ok)
	}
	// Re-enqueue after unqueue must produce a live entry again.
	e.Enqueue(call(1), 0, time.Time{}, t0)
	got, ok = e.Pop("sv", t0)
	if !ok || got != call(1) {
		t.Fatalf("pop re-enqueued: got %v ok=%v", got, ok)
	}
}

// An enqueue→pop cycle allocates nothing once warm. A call unqueued and
// enqueued again leaves a stale entry in the queue, which is never
// handed out: the call is popped exactly once, in its new place, and
// arrival order holds around it.
func TestQueueReusesEntriesOnlyOffTheHeap(t *testing.T) {
	e := mustNew(t, Config{})
	for i := 1; i <= 3; i++ {
		e.Enqueue(call(i), 0, time.Time{}, t0)
	}
	e.Unqueue(call(2))
	e.Enqueue(call(2), 0, time.Time{}, t0) // behind 3 now
	pop := func() proto.CallID {
		got, ok := e.Pop("sv", t0)
		if !ok {
			return proto.CallID{}
		}
		return got
	}
	var order []proto.RPCSeq
	order = append(order, pop().Seq) // 1
	e.Enqueue(call(4), 0, time.Time{}, t0)
	e.Unqueue(call(4))
	e.Enqueue(call(4), 0, time.Time{}, t0)
	for got := pop(); got.Seq != 0; got = pop() {
		order = append(order, got.Seq)
	}
	if want := []proto.RPCSeq{1, 3, 2, 4}; !slices.Equal(order, want) {
		t.Fatalf("popped %v, want %v", order, want)
	}

	seq := 4
	cycle := func() {
		seq++
		e.Enqueue(call(seq), 0, time.Time{}, t0)
		if got := pop(); got != call(seq) {
			t.Fatalf("popped %v, want %v", got, call(seq))
		}
	}
	for range 10 {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("an enqueue and its pop allocate %v times, want 0", n)
	}
}
