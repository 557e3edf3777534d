package node

import (
	"testing"
	"testing/quick"
	"time"
)

var base = time.Unix(1_000_000_000, 0).UTC()

func TestSerialResourceQueues(t *testing.T) {
	var r SerialResource
	// Three simultaneous 10ms operations complete at 10, 20, 30ms.
	for i := 1; i <= 3; i++ {
		got := r.Acquire(base, 10*time.Millisecond)
		want := time.Duration(i) * 10 * time.Millisecond
		if got != want {
			t.Fatalf("op %d delay = %v, want %v", i, got, want)
		}
	}
}

func TestSerialResourceIdleGap(t *testing.T) {
	var r SerialResource
	r.Acquire(base, 10*time.Millisecond)
	// A request arriving after the resource is free pays only its own cost.
	later := base.Add(time.Second)
	if got := r.Acquire(later, 5*time.Millisecond); got != 5*time.Millisecond {
		t.Fatalf("idle acquire delay = %v, want 5ms", got)
	}
}

func TestSerialResourceBusy(t *testing.T) {
	var r SerialResource
	if r.Busy(base) {
		t.Fatal("fresh resource busy")
	}
	r.Acquire(base, 10*time.Millisecond)
	if !r.Busy(base.Add(5 * time.Millisecond)) {
		t.Fatal("not busy mid-operation")
	}
	if r.Busy(base.Add(15 * time.Millisecond)) {
		t.Fatal("busy after completion")
	}
	if got := r.FreeAt(); got != base.Add(10*time.Millisecond) {
		t.Fatalf("FreeAt = %v", got)
	}
}

func TestSerialResourceConservation(t *testing.T) {
	// Property: for any sequence of same-time acquisitions, total busy
	// time equals the sum of costs (no work lost, none invented), and
	// each delay is at least the operation's own cost.
	f := func(costsMs []uint8) bool {
		if len(costsMs) == 0 {
			return true // a fresh resource has no meaningful FreeAt
		}
		var r SerialResource
		var sum time.Duration
		for _, c := range costsMs {
			cost := time.Duration(c) * time.Millisecond
			sum += cost
			d := r.Acquire(base, cost)
			if d < cost {
				return false
			}
		}
		return r.FreeAt().Sub(base) == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
