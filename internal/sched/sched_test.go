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

func TestRegistryListsBuiltins(t *testing.T) {
	names := Policies()
	want := map[string]bool{"fcfs": true, "fastest-first": true, "deadline": true, "speculative": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing built-in policies: %v (have %v)", want, names)
	}
	if _, err := New(Config{Policy: "nope"}); err == nil {
		t.Fatal("unknown policy accepted")
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
		got, spec, ok := e.Pop("sv", t0)
		if !ok || spec || got != call(i) {
			t.Fatalf("pop %d: got %v spec=%v ok=%v", i, got, spec, ok)
		}
	}
	if _, _, ok := e.Pop("sv", t0); ok {
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
	got, _, ok := e.Pop("sv", t0)
	if !ok || got != call(2) {
		t.Fatalf("pop after unqueue: got %v ok=%v", got, ok)
	}
	// Re-enqueue after unqueue must produce a live entry again.
	e.Enqueue(call(1), 0, time.Time{}, t0)
	got, _, ok = e.Pop("sv", t0)
	if !ok || got != call(1) {
		t.Fatalf("pop re-enqueued: got %v ok=%v", got, ok)
	}
}

// A queued call's entry is reused once it has left the heap: an
// enqueue→pop cycle allocates nothing once warm. A call unqueued and
// enqueued again leaves a stale copy of its entry in the heap, which is
// never handed out again while it is there: the call is popped exactly
// once, in its new place, and arrival order holds around it.
func TestQueueReusesEntriesOnlyOffTheHeap(t *testing.T) {
	e := mustNew(t, Config{})
	for i := 1; i <= 3; i++ {
		e.Enqueue(call(i), 0, time.Time{}, t0)
	}
	e.Unqueue(call(2))
	e.Enqueue(call(2), 0, time.Time{}, t0) // behind 3 now
	pop := func() proto.CallID {
		got, _, ok := e.Pop("sv", t0)
		if !ok {
			return proto.CallID{}
		}
		return got
	}
	var order []proto.RPCSeq
	order = append(order, pop().Seq)       // 1, whose entry is free from here on
	e.Enqueue(call(4), 0, time.Time{}, t0) // takes it
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

func TestDeadlinePopsEDF(t *testing.T) {
	e := mustNew(t, Config{Policy: "deadline"})
	e.Enqueue(call(1), 0, time.Time{}, t0)            // no deadline: last
	e.Enqueue(call(2), 0, t0.Add(30*time.Second), t0) // middle
	e.Enqueue(call(3), 0, t0.Add(10*time.Second), t0) // earliest
	e.Enqueue(call(4), 0, t0.Add(10*time.Minute), t0) // latest deadline
	want := []proto.CallID{call(3), call(2), call(4), call(1)}
	for i, w := range want {
		got, _, ok := e.Pop("sv", t0)
		if !ok || got != w {
			t.Fatalf("EDF pop %d: got %v want %v", i, got, w)
		}
	}
}

func TestEstimatorTracksSlowServer(t *testing.T) {
	e := mustNew(t, Config{})
	for i := 0; i < 8; i++ {
		e.ObserveCompletion("fast", 10*time.Second, 10*time.Second)
		e.ObserveCompletion("slow", 10*time.Second, 100*time.Second)
	}
	ff, ok := e.ServerFactor("fast")
	if !ok || ff > 1.5 {
		t.Fatalf("fast factor = %v ok=%v, want ~1", ff, ok)
	}
	sf, ok := e.ServerFactor("slow")
	if !ok || sf < 5 {
		t.Fatalf("slow factor = %v ok=%v, want ~10", sf, ok)
	}
	if e.KnownServers() != 2 {
		t.Fatalf("known servers = %d", e.KnownServers())
	}
	if e.est.mean <= 0 {
		t.Fatal("mean completion not tracked")
	}
}

func TestFastestFirstGatesSlowServer(t *testing.T) {
	e := mustNew(t, Config{Policy: "fastest-first"})
	for i := 0; i < 8; i++ {
		e.ObserveCompletion("fast", 10*time.Second, 10*time.Second)
		e.ObserveCompletion("slow", 10*time.Second, 100*time.Second)
	}
	// The slow machine is ~10x the single fast server: it only gets
	// work while the queue holds more than the ~10 tasks the fast
	// machine retires during one of its executions.
	for i := 1; i <= 25; i++ {
		e.Enqueue(call(i), 10*time.Second, time.Time{}, t0)
	}
	if _, _, ok := e.Pop("slow", t0); !ok {
		t.Fatal("slow server refused while the queue is long")
	}
	// Drain below the matchmaking threshold: the slow server is
	// refused, the fast one and unknown newcomers are not.
	for e.Len() > 5 {
		if _, _, ok := e.Pop("fast", t0); !ok {
			t.Fatal("fast server refused")
		}
	}
	if _, _, ok := e.Pop("slow", t0); ok {
		t.Fatal("slow server admitted at the tail")
	}
	if _, _, ok := e.Pop("newcomer", t0); !ok {
		t.Fatal("unknown server refused at the tail")
	}
	if _, _, ok := e.Pop("fast", t0); !ok {
		t.Fatal("fast server refused at the tail")
	}
}

func TestFastestFirstStarvationGuard(t *testing.T) {
	e := mustNew(t, Config{Policy: "fastest-first"})
	for i := 0; i < 8; i++ {
		e.ObserveCompletion("fast", 10*time.Second, 10*time.Second)
		e.ObserveCompletion("slow", 10*time.Second, 100*time.Second)
	}
	e.Enqueue(call(1), 10*time.Second, time.Time{}, t0)
	if _, _, ok := e.Pop("slow", t0); ok {
		t.Fatal("slow server admitted at the tail before starvation")
	}
	// Once the head has waited starveAfter, anyone may take it: a
	// wrong estimate must not park the queue forever.
	if _, _, ok := e.Pop("slow", t0.Add(starveAfter)); !ok {
		t.Fatal("starving head still gated")
	}
}

func TestSpeculativeQueueExcludesOriginalServer(t *testing.T) {
	e := mustNew(t, Config{Policy: "speculative"})
	if !e.Speculative() {
		t.Fatal("speculative policy not flagged")
	}
	if !e.EnqueueSpec(call(1), "sv-slow") {
		t.Fatal("spec enqueue refused")
	}
	if e.EnqueueSpec(call(1), "sv-slow") {
		t.Fatal("duplicate spec enqueue accepted")
	}
	if _, spec, ok := e.Pop("sv-slow", t0); ok || spec {
		t.Fatal("duplicate offered to the server running the original")
	}
	got, spec, ok := e.Pop("sv-fast", t0)
	if !ok || !spec || got != call(1) {
		t.Fatalf("spec pop: got %v spec=%v ok=%v", got, spec, ok)
	}
	// Duplicates drain before regular pending entries.
	e.Enqueue(call(2), 0, time.Time{}, t0)
	e.EnqueueSpec(call(3), "sv-slow")
	got, spec, ok = e.Pop("sv-fast", t0)
	if !ok || !spec || got != call(3) {
		t.Fatalf("spec priority pop: got %v spec=%v ok=%v", got, spec, ok)
	}
}

func TestSpeculativeDuplicateAvoidsSlowServers(t *testing.T) {
	e := mustNew(t, Config{Policy: "speculative"})
	for i := 0; i < 8; i++ {
		e.ObserveCompletion("fast", 10*time.Second, 10*time.Second)
		e.ObserveCompletion("crawler", 10*time.Second, 100*time.Second)
	}
	e.EnqueueSpec(call(1), "straggler")
	if _, _, ok := e.Pop("crawler", t0); ok {
		t.Fatal("duplicate handed to a known-slow server")
	}
	if _, spec, ok := e.Pop("fast", t0); !ok || !spec {
		t.Fatal("duplicate withheld from a fast server")
	}
}

func TestUnqueueDropsSpeculativeEntry(t *testing.T) {
	e := mustNew(t, Config{Policy: "speculative"})
	e.EnqueueSpec(call(1), "a")
	e.Unqueue(call(1)) // result arrived before the duplicate ran
	if _, _, ok := e.Pop("b", t0); ok {
		t.Fatal("cancelled duplicate still offered")
	}
}

func TestSpeculateThreshold(t *testing.T) {
	e := mustNew(t, Config{Policy: "speculative"})
	if got, want := e.SpeculateThreshold(10*time.Second), speculateFactor*10*time.Second; got != want {
		t.Fatalf("threshold = %v, want %v", got, want)
	}
	// Unknown exec time: floored at speculateMin until completions teach
	// the engine a mean.
	if got, want := e.SpeculateThreshold(0), speculateFactor*speculateMin; got != want {
		t.Fatalf("floored threshold = %v, want %v", got, want)
	}
	e.ObserveCompletion("sv", 0, 20*time.Second)
	if got, want := e.SpeculateThreshold(0), speculateFactor*20*time.Second; got != want {
		t.Fatalf("mean-based threshold = %v, want %v", got, want)
	}
}
