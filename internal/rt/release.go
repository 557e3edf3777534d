package rt

// Payloads given back (node.Releaser). A handler that is done with a
// payload a message brought it vouches for itself — it keeps no slice
// of the array, and no value it logged holds one any more — but not for
// what it sent: a message carrying the payload, or a slice of it, may
// still wait in a sender's queue, or be on its way into a socket, and a
// reused array would go out with another call's bytes. So the runtime
// hands a released payload to proto's pool only once every envelope
// that was queued or being written on any of its senders when the
// release came has been written or dropped.
//
// A sender counts its envelopes (sender.queued, sender.settledLocked):
// a release notes, for each sender with envelopes outstanding, the
// count it must reach, and waits with those marks until every sender
// has reached its own. A sender looks at the waiting releases when it
// is done with a batch, and only while one waits (Runtime.releasing):
// traffic with nothing to give back — every 64 B call — pays a counter
// increment per envelope under the queue's lock it already holds.
//
// A release that waits for a sender the runtime is closing is never
// settled: its array is left to the collector with the runtime.

import "rpcv/internal/proto"

// toPool is proto's pool, where a settled payload goes; a test records
// what reaches it.
var toPool = proto.ReleasePayload

// pendingRelease is a released payload waiting for its senders.
type pendingRelease struct {
	b     []byte
	marks []releaseMark
}

// releaseMark is a sender, and how many of its envelopes must be
// settled before the payload may be reused.
type releaseMark struct {
	s *sender
	n uint64
}

// release gives b back to proto's pool once no envelope queued before
// now can still read it.
func (r *Runtime) release(b []byte) {
	if cap(b) < proto.BlobMin {
		return // never pooled: the wire decoder reads a small payload into a make
	}
	var marks []releaseMark
	r.sendMu.Lock()
	for _, s := range r.senders {
		s.mu.Lock()
		if s.settledLocked() < s.queued {
			marks = append(marks, releaseMark{s: s, n: s.queued})
		}
		s.mu.Unlock()
	}
	r.sendMu.Unlock()
	if len(marks) == 0 {
		toPool(b)
		return
	}
	r.relMu.Lock()
	r.releases = append(r.releases, pendingRelease{b: b, marks: marks})
	r.releasing.Store(true)
	r.relMu.Unlock()
	// A sender that settled between the marks and the append did not
	// see this release waiting: look once more now.
	r.settleReleases()
}

// settleReleases hands the pool every waiting payload whose senders
// have all settled their marks.
func (r *Runtime) settleReleases() {
	r.relMu.Lock()
	defer r.relMu.Unlock()
	keep := r.releases[:0]
	for _, p := range r.releases {
		if p.settled() {
			toPool(p.b)
		} else {
			keep = append(keep, p)
		}
	}
	clear(r.releases[len(keep):])
	r.releases = keep
	r.releasing.Store(len(keep) > 0)
}

// settled reports whether every mark of p is reached.
func (p *pendingRelease) settled() bool {
	for _, m := range p.marks {
		m.s.mu.Lock()
		done := m.s.settledLocked() >= m.n
		m.s.mu.Unlock()
		if !done {
			return false
		}
	}
	return true
}
