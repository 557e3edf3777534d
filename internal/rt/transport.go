package rt

// The transport: one sender goroutine per peer owns a single
// long-lived TCP connection, so sustained traffic pays the dial once per
// connection instead of once per message. The sender opens the
// connection with the two-byte magic/version preface and gathers each
// batch in a proto.Frames it keeps: the frames' small fields packed into
// one scratch buffer, every large payload referenced where the message
// holds it, the whole written with one writev — no payload is copied in
// user space, and the steady-state send path allocates nothing.
// Semantics stay the paper's best-effort channel:
//
//   - enqueue never blocks the caller; a full queue drops the oldest
//     envelope (indistinguishable from network loss, which the
//     protocol absorbs by design);
//   - everything queued at flush time is coalesced into one write;
//   - a broken connection or a failed dial drops its batch and the next
//     batch dials again, so a down peer is knocked on at the rate the
//     protocol sends to it, and a peer back at its address is reached
//     by the next message — connection breaks are NEVER fault signals,
//     only heartbeat timeouts are;
//   - after IdleTimeout without traffic the sender closes the
//     connection and retires, returning a quiet peer to the paper's
//     connection-less behaviour.
//
// The read side is Runtime.handleConn.

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rpcv/internal/proto"
)

const (
	defaultQueueDepth      = 128
	defaultIdleTimeout     = 30 * time.Second
	defaultMaxInboundConns = 256

	// dialTimeout bounds a connection attempt.
	dialTimeout = 2 * time.Second

	// writeTimeout bounds a batch's write; the deadline is re-armed at
	// most once per deadlineStep (see deadline).
	writeTimeout = time.Minute
)

// deadlineStep is how often a connection's deadline is pushed on: each
// push modifies a runtime timer, so a busy connection pushes once per
// step rather than once per frame or batch, and its deadline stays at
// least its timeout less a step ahead.
const deadlineStep = time.Second

// deadline keeps a connection deadline at least span - deadlineStep
// ahead, re-arming it through set at most once per deadlineStep.
type deadline struct {
	set   func(time.Time) error
	span  time.Duration
	armed time.Time
}

func (d *deadline) push() {
	if now := time.Now(); now.Sub(d.armed) >= deadlineStep {
		d.armed = now
		_ = d.set(now.Add(d.span)) // fails only on a closed connection, which the read or write reports
	}
}

// TransportStats is a snapshot of a runtime's transport counters.
type TransportStats struct {
	// Sent counts envelopes handed to the OS.
	Sent uint64
	// Flushes counts connection writes that carried at least one
	// envelope; Sent/Flushes is the achieved coalescing factor.
	Flushes uint64
	// Dropped counts envelopes lost locally, whatever the reason (the
	// sum of rpcv_transport_dropped_total's series): queue overflow, an
	// unreachable peer, a connection that broke mid-batch, a frame over
	// the cap.
	Dropped uint64
	// Redials counts dial attempts after a sender's first.
	Redials uint64
	// Sheds counts inbound connections closed at accept because
	// MaxInboundConns was reached.
	Sheds uint64
}

// dropReason says why the transport lost an envelope locally.
type dropReason int

const (
	dropOverflow    dropReason = iota // the peer's send queue was full: its oldest envelope went
	dropUnreachable                   // no address at send or flush time, or the dial failed
	dropBroken                        // the connection broke under the batch
	dropOversize                      // the frame is over proto.MaxFrame
	numDropReasons
)

var dropReasonNames = [numDropReasons]string{"overflow", "unreachable", "broken", "oversize"}

// transportCounters is the atomic backing store of TransportStats.
type transportCounters struct {
	sent, flushes, redials, sheds atomic.Uint64
	dropped                       [numDropReasons]atomic.Uint64
}

func (c *transportCounters) drop(why dropReason, n int) { c.dropped[why].Add(uint64(n)) }

// TransportStats returns the current transport counters.
func (r *Runtime) TransportStats() TransportStats {
	var dropped uint64
	for i := range r.stats.dropped {
		dropped += r.stats.dropped[i].Load()
	}
	return TransportStats{
		Sent:    r.stats.sent.Load(),
		Flushes: r.stats.flushes.Load(),
		Dropped: dropped,
		Redials: r.stats.redials.Load(),
		Sheds:   r.stats.sheds.Load(),
	}
}

// sender owns the pooled connection to one peer.
//
// It keeps two queue arrays and swaps them: enqueue appends to queue,
// drain hands queue to the flush and makes spare the new queue, and the
// flushed batch, cleared, becomes spare again. Once both have grown to
// the peer's usual batch, queuing allocates nothing.
//
// It also counts its envelopes, for the payloads a handler gives back
// (release.go): queued is how many were ever queued, and the first
// settledLocked() of them are written or dropped. Envelopes leave in the
// order they were queued — a batch is the queue's head, an overflow
// drops the oldest — so a count is all a release needs to remember.
type sender struct {
	rt *Runtime
	to proto.NodeID

	mu       sync.Mutex
	queue    []proto.Message
	spare    []proto.Message // nil while drain's batch is out
	retired  bool
	queued   uint64 // envelopes ever queued
	outFrom  uint64 // while flushing: the count queued before the batch out
	flushing bool   // a drained batch is being written

	wake chan struct{} // 1-buffered doorbell
}

// settledLocked is how many of the envelopes queued so far are written
// or dropped: all but the queue and, while one is out, the batch being
// written. Caller holds mu.
func (s *sender) settledLocked() uint64 {
	if s.flushing {
		return s.outFrom
	}
	return s.queued - uint64(len(s.queue))
}

// senderFor returns the live sender for a peer, creating it (and its
// goroutine) when none exists or the previous one retired at idle.
func (r *Runtime) senderFor(to proto.NodeID) *sender {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	if s, ok := r.senders[to]; ok {
		return s
	}
	s := &sender{rt: r, to: to, wake: make(chan struct{}, 1)}
	r.senders[to] = s
	r.wg.Add(1)
	go s.run()
	return s
}

// enqueue adds msg to the bounded queue, dropping the oldest envelope
// when full. It never blocks. If the sender retired concurrently it
// re-resolves a fresh one.
func (s *sender) enqueue(msg proto.Message) {
	for {
		s.mu.Lock()
		if s.retired {
			s.mu.Unlock()
			s = s.rt.senderFor(s.to)
			continue
		}
		var lost proto.Message
		if len(s.queue) >= s.rt.cfg.QueueDepth {
			lost = s.queue[0]
			copy(s.queue, s.queue[1:])
			s.queue = s.queue[:len(s.queue)-1]
			s.rt.stats.drop(dropOverflow, 1)
		}
		s.queue = append(s.queue, msg)
		s.queued++
		s.mu.Unlock()
		if lost != nil {
			s.rt.sent(lost)
		}
		select {
		case s.wake <- struct{}{}:
		default:
		}
		return
	}
}

// drain takes the whole queue: one coalesced batch. It takes back the
// batch drained before, done with — written or dropped; nil the first
// time — as the spare array, its messages given back (Runtime.sent) and
// cleared so that it holds on to none, and settles the releases that
// waited for it. An empty queue is left where it is: a swap would hand
// the spare to a batch that never comes back.
func (s *sender) drain(flushed []proto.Message) []proto.Message {
	for _, m := range flushed {
		s.rt.sent(m)
	}
	clear(flushed)
	s.mu.Lock()
	if flushed != nil {
		s.spare = flushed[:0]
		s.flushing = false
	}
	var batch []proto.Message
	if len(s.queue) > 0 {
		batch = s.queue
		s.queue, s.spare = s.spare, nil
		s.outFrom, s.flushing = s.queued-uint64(len(batch)), true
	}
	s.mu.Unlock()
	if flushed != nil && s.rt.releasing.Load() {
		s.rt.settleReleases()
	}
	return batch
}

// tryRetire atomically unregisters an idle sender so a later send
// creates a fresh one. It fails if messages arrived meanwhile.
func (s *sender) tryRetire() bool {
	s.rt.sendMu.Lock()
	defer s.rt.sendMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) > 0 {
		return false
	}
	s.retired = true
	delete(s.rt.senders, s.to)
	return true
}

// run is the sender goroutine: wait for work, flush it coalesced,
// dial again for the next batch after a failure, retire at idle.
func (s *sender) run() {
	defer s.rt.wg.Done()

	var conn net.Conn
	var dialedAddr string
	var wd deadline
	// The batch being written. Between batches it holds no payload; on a
	// fresh connection it may hold the preface alone.
	var frames proto.Frames
	closeConn := func() {
		if conn != nil {
			s.rt.untrack(conn)
			conn.Close()
			conn = nil
			frames.Reset()
		}
	}
	defer closeConn()

	dialed := false
	// The idle timer is armed once per IdleTimeout, not per batch: when
	// it fires it looks at the last batch's time, and re-arms for what is
	// left of the timeout if there was one since.
	idle := time.NewTimer(s.rt.cfg.IdleTimeout)
	defer idle.Stop()
	last := time.Now()

	for {
		select {
		case <-s.rt.quit:
			return
		case <-s.wake:
		case <-idle.C:
			if quiet := time.Since(last); quiet < s.rt.cfg.IdleTimeout {
				idle.Reset(s.rt.cfg.IdleTimeout - quiet)
				continue
			}
			// Quiet peer: close the pooled connection and retire —
			// back to the paper's connection-less behaviour.
			if s.tryRetire() {
				return
			}
			idle.Reset(s.rt.cfg.IdleTimeout)
			continue
		}

		for batch := s.drain(nil); len(batch) > 0; batch = s.drain(batch) {
			addr, ok := s.rt.lookup(s.to)
			if !ok {
				s.rt.stats.drop(dropUnreachable, len(batch))
				continue
			}
			if conn != nil && addr != dialedAddr {
				// The directory moved the peer (SetPeer): abandon the
				// connection to the old endpoint — a live-but-wrong
				// connection must not pin traffic there forever.
				closeConn()
			}
			if conn == nil {
				c, err := net.DialTimeout("tcp", addr, dialTimeout)
				if dialed {
					s.rt.stats.redials.Add(1)
				}
				dialed = true
				if err != nil {
					// Unreachable peer: the batch is lost (best
					// effort) and the next batch dials again, so a
					// down peer is knocked on at the rate the protocol
					// sends to it, and a peer back at its address is
					// reached by the next message.
					s.rt.stats.drop(dropUnreachable, len(batch))
					continue
				}
				if !s.rt.track(c) {
					return // shutting down; track closed c
				}
				conn = c
				wd = deadline{set: c.SetWriteDeadline, span: writeTimeout}
				// The preface rides the first batch's write: one write
				// announces the codec version for the whole connection.
				frames.AppendPreface()
				dialedAddr = addr
			}
			framed := len(batch)
			for _, m := range batch {
				if ferr := frames.Append(s.rt.cfg.ID, m); ferr != nil {
					// Over the frame cap: drop this message alone (best
					// effort) instead of poisoning the connection for
					// the whole batch.
					framed--
					s.rt.stats.drop(dropOversize, 1)
					s.rt.cfg.Logf("rt(%s): %v", s.rt.cfg.ID, ferr)
				}
			}
			if framed == 0 {
				// Nothing was framed, so nothing is written or counted;
				// a fresh connection's preface waits for the next batch.
				continue
			}
			// One deadline serves the whole batch.
			wd.push()
			_, werr := frames.WriteTo(conn)
			frames.Reset()
			if werr != nil {
				// Broken connection: delivery of the whole batch is
				// unknown (part of it may have reached the kernel) —
				// count everything dropped, close, redial on the next
				// batch. Never a fault signal.
				s.rt.stats.drop(dropBroken, framed)
				closeConn()
				continue
			}
			s.rt.stats.sent.Add(uint64(framed))
			s.rt.stats.flushes.Add(1)
			s.rt.obsBatch.Observe(int64(framed))
		}
		last = time.Now()
	}
}
