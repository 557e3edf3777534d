package node

import "time"

// SerialResource models a resource that serves one operation at a time
// — a disk arm, a database engine. Concurrent requests queue: each
// acquisition starts when the previous one finishes.
//
// It is the piece that makes N simultaneous log writes cost N times one
// write on the virtual clock instead of completing in parallel, which
// is essential to the shape of the paper's figure 4 (submission time
// grows with the number of calls) and figure 5 (replication bounded by
// per-task database operations).
type SerialResource struct {
	free time.Time
}

// Acquire reserves the resource at time now for cost and returns the
// delay until this operation completes (queueing included).
func (r *SerialResource) Acquire(now time.Time, cost time.Duration) time.Duration {
	start := now
	if r.free.After(start) {
		start = r.free
	}
	r.free = start.Add(cost)
	return r.free.Sub(now)
}

// Busy reports whether the resource is occupied at time now.
func (r *SerialResource) Busy(now time.Time) bool { return r.free.After(now) }

// FreeAt returns when the resource becomes idle.
func (r *SerialResource) FreeAt() time.Time { return r.free }
