package fifo

import "testing"

// A queue that never empties — a commit always in flight behind the
// one completing — stays on its array and in order.
func TestFifoThatNeverEmptiesStaysOnItsArray(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	for range 10 {
		q.Push(next)
		next++
	}
	for range 10_000 {
		q.Push(next)
		next++
		if got := q.Pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	if q.Len() != 10 || cap(q.buf) > 32 {
		t.Fatalf("%d queued on an array of %d, want 10 on one of a few dozen at most", q.Len(), cap(q.buf))
	}
}
