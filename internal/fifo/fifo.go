// Package fifo is a queue on one reused array, for the owners that
// complete what they staged in staging order — a disk completes its
// writes and deletes in the order they were staged — through one
// callback bound once over a Queue of what they staged.
package fifo

// Queue is a first-in first-out queue on one array: once the array has
// grown to the deepest the queue gets, pushing and popping allocate
// nothing. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int // buf[:head] is popped
}

// Len is the number of values queued.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Front is the oldest value queued and Back the newest: pointers into
// the queue, valid until the next Push, Pop, Unpush or Reset.
func (q *Queue[T]) Front() *T { return &q.buf[q.head] }
func (q *Queue[T]) Back() *T  { return &q.buf[len(q.buf)-1] }

// Push queues v.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		// Full at the back and at least half popped: slide down rather
		// than grow. Each slide moves no more than the pushes since the
		// last one, so a queue that never empties stays on its array.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop takes the oldest value off the queue.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// Unpush takes back the value pushed last.
func (q *Queue[T]) Unpush() T {
	last := len(q.buf) - 1
	v := q.buf[last]
	clear(q.buf[last:])
	q.buf = q.buf[:last]
	return v
}

// Reset empties the queue and keeps its array.
func (q *Queue[T]) Reset() {
	clear(q.buf)
	q.buf, q.head = q.buf[:0], 0
}
