package store

import (
	"errors"
	"sort"
	"strings"
	"sync"
)

// Laner is optionally implemented by engines that can hand out
// per-event-loop staging lanes. A lane is a Store whose writes stage
// under a lane-private lock and ride the engine's shared group commit:
// M event loops each stage into their own lane contention-free, and
// one committer fsync covers everything staged across every lane.
//
// The multi-loop runtime (internal/rt) discovers the interface by type
// assertion and gives each loop its own lane; a store without lanes
// (memory, or a wrapper that hides them) is shared across loops
// directly — it serializes internally.
type Laner interface {
	// Lane returns a new staging lane over the same key space. Lanes
	// observe their own staged writes immediately (read-your-writes)
	// and everything committed engine-wide. Closing a lane flushes it
	// but leaves the engine open; closing the engine retires every
	// lane.
	Lane() Store
}

var _ Laner = (*WAL)(nil)

// laneEntry is one not-yet-committed write overlaying the shared
// index, tagged with the lane sequence that produced it so the
// committer only clears entries it actually drained.
type laneEntry struct {
	val []byte
	del bool
	seq uint64
}

// walLane is a per-event-loop staging lane over a shared WAL.
//
// stage touches only the lane lock: the op is recorded in a lane-local
// overlay (for read-your-writes) and a lane-local staged slice, then
// the shared committer is kicked. The committer drains every lane per
// batch, applies the drained ops to the shared index in one amortized
// critical section, appends them to the segment and completes them
// after the single batch fsync — so the engine-wide w.mu is taken once
// per commit instead of once per operation.
type walLane struct {
	w *WAL

	mu      sync.Mutex
	staged  []walOp
	pending map[string]laneEntry
	seq     uint64
	closed  bool
}

var _ Store = (*walLane)(nil)

// Lane implements Laner.
func (w *WAL) Lane() Store {
	l := &walLane{w: w, pending: make(map[string]laneEntry)}
	w.mu.Lock()
	if w.closed {
		l.closed = true
	} else {
		w.lanes = append(w.lanes, l)
	}
	w.mu.Unlock()
	return l
}

// stage queues one operation on the lane and kicks the committer.
func (l *walLane) stage(op walOp) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		if op.done != nil {
			op.done(errors.New("store: wal closed"))
		}
		return
	}
	l.seq++
	op.seq = l.seq
	switch op.kind {
	case recPut:
		l.pending[op.key] = laneEntry{val: op.val, seq: l.seq}
	case recDelete:
		l.pending[op.key] = laneEntry{del: true, seq: l.seq}
	}
	l.staged = append(l.staged, op)
	l.mu.Unlock()
	l.w.kickCommitter()
}

// take drains the staged slice for the committer. finalize retires the
// lane: it is the engine-close drain, after which stage fails fast so
// no op can be queued past the final commit and hang forever.
func (l *walLane) take(finalize bool) []walOp {
	l.mu.Lock()
	ops := l.staged
	l.staged = nil
	if finalize {
		l.closed = true
	}
	l.mu.Unlock()
	return ops
}

// clearPending removes overlay entries for drained ops once the shared
// index reflects them. The seq guard keeps a newer staged write to the
// same key (not part of this batch) overlaying correctly.
func (l *walLane) clearPending(ops []walOp) {
	l.mu.Lock()
	for _, op := range ops {
		if op.kind == 0 {
			continue
		}
		if e, ok := l.pending[op.key]; ok && e.seq == op.seq {
			delete(l.pending, op.key)
		}
	}
	l.mu.Unlock()
}

// Write implements Store: stages on the lane and blocks until the
// shared batch fsync covers it.
func (l *walLane) Write(key string, value []byte) error {
	ch := make(chan error, 1)
	l.stage(walOp{kind: recPut, key: key, val: value, done: func(err error) { ch <- err }})
	return <-ch
}

// WriteAsync implements Store.
func (l *walLane) WriteAsync(key string, value []byte, done func(error)) {
	l.stage(walOp{kind: recPut, key: key, val: value, done: done})
}

// Delete implements Store.
func (l *walLane) Delete(key string) error {
	ch := make(chan error, 1)
	l.stage(walOp{kind: recDelete, key: key, done: func(err error) { ch <- err }})
	return <-ch
}

// DeleteAsync implements Store.
func (l *walLane) DeleteAsync(key string, done func(error)) {
	l.stage(walOp{kind: recDelete, key: key, done: done})
}

// Read implements Store: the lane overlay wins (read-your-writes for
// staged ops), then the shared committed index.
func (l *walLane) Read(key string) ([]byte, bool) {
	l.mu.Lock()
	if e, ok := l.pending[key]; ok {
		if e.del {
			l.mu.Unlock()
			return nil, false
		}
		l.mu.Unlock()
		return e.val, true
	}
	l.mu.Unlock()
	return l.w.Read(key)
}

// Keys implements Store: shared index keys merged with staged puts,
// minus staged deletes.
func (l *walLane) Keys(prefix string) []string {
	l.mu.Lock()
	adds := make([]string, 0, len(l.pending))
	dels := make(map[string]bool)
	for k, e := range l.pending {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		if e.del {
			dels[k] = true
		} else {
			adds = append(adds, k)
		}
	}
	l.mu.Unlock()
	seen := make(map[string]bool, len(adds))
	keys := make([]string, 0, len(adds))
	for _, k := range l.w.Keys(prefix) {
		if !dels[k] && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, k := range adds {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Sync implements Store: a barrier through the lane's staging order,
// durable once the shared fsync covering it returns.
func (l *walLane) Sync() error {
	ch := make(chan error, 1)
	l.stage(walOp{done: func(err error) { ch <- err }})
	return <-ch
}

// Close implements Store: flushes the lane but leaves the shared
// engine (and the lane) open — the engine owner closes the WAL, which
// retires every lane.
func (l *walLane) Close() error {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return nil
	}
	return l.Sync()
}
