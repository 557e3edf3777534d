package rt

// The transport: one sender goroutine per peer owns a single
// long-lived TCP connection, so sustained traffic pays the dial once per
// connection instead of once per message. The sender opens the
// connection with the two-byte magic/version preface and appends
// length-prefixed frames into one pooled buffer per batch — zero
// allocations on the steady-state send path. Semantics stay the paper's
// best-effort channel:
//
//   - enqueue never blocks the caller; a full queue drops the oldest
//     envelope (indistinguishable from network loss, which the
//     protocol absorbs by design);
//   - everything queued at flush time is coalesced into one write;
//   - a broken or unreachable connection silently drops the batch and
//     redials with jittered exponential backoff — connection breaks
//     are NEVER fault signals, only heartbeat timeouts are;
//   - after IdleTimeout without traffic the sender closes the
//     connection and retires, returning a quiet peer to the paper's
//     connection-less behaviour.
//
// The read side is Runtime.handleConn.

import (
	"bufio"
	"math/rand"
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

	// Redial backoff bounds (jittered exponential).
	backoffMin = 50 * time.Millisecond
	backoffMax = 2 * time.Second
)

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
	dropUnreachable                   // no address at flush time, or the dial failed
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

// outMsg is one queued envelope: the message plus the wire From of
// the loop that sent it (tagged on multi-loop runtimes, the bare node
// ID on single-loop ones — see route.go).
type outMsg struct {
	msg  proto.Message
	from proto.NodeID
}

// sender owns the pooled connection to one peer.
//
// It keeps two queue arrays and swaps them: enqueue appends to queue,
// drain hands queue to the flush and makes spare the new queue, and the
// flushed batch, cleared, becomes spare again. Once both have grown to
// the peer's usual batch, queuing allocates nothing.
type sender struct {
	rt *Runtime
	to proto.NodeID

	mu      sync.Mutex
	queue   []outMsg
	spare   []outMsg // nil while drain's batch is out
	retired bool

	wake chan struct{} // 1-buffered doorbell
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
func (s *sender) enqueue(msg outMsg) {
	for {
		s.mu.Lock()
		if s.retired {
			s.mu.Unlock()
			s = s.rt.senderFor(s.to)
			continue
		}
		if len(s.queue) >= s.rt.cfg.QueueDepth {
			copy(s.queue, s.queue[1:])
			s.queue = s.queue[:len(s.queue)-1]
			s.rt.stats.drop(dropOverflow, 1)
		}
		s.queue = append(s.queue, msg)
		s.mu.Unlock()
		select {
		case s.wake <- struct{}{}:
		default:
		}
		return
	}
}

// drain takes the whole queue: one coalesced batch. It takes back the
// batch drained before, done with — nil the first time — as the spare
// array, cleared so that it holds on to no message. An empty queue is
// left where it is: a swap would hand the spare to a batch that never
// comes back.
func (s *sender) drain(flushed []outMsg) []outMsg {
	clear(flushed)
	s.mu.Lock()
	defer s.mu.Unlock()
	if flushed != nil {
		s.spare = flushed[:0]
	}
	if len(s.queue) == 0 {
		return nil
	}
	batch := s.queue
	s.queue, s.spare = s.spare, nil
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
// redial with backoff on failure, retire at idle.
func (s *sender) run() {
	defer s.rt.wg.Done()

	var conn net.Conn
	var bw *bufio.Writer
	var dialedAddr string
	closeConn := func() {
		if conn != nil {
			s.rt.untrack(conn)
			conn.Close()
			conn, bw = nil, nil
		}
	}
	defer closeConn()

	backoff := backoffMin
	dialed := false
	idle := time.NewTimer(s.rt.cfg.IdleTimeout)
	defer idle.Stop()

	for {
		select {
		case <-s.rt.quit:
			return
		case <-s.wake:
		case <-idle.C:
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
				c, err := net.DialTimeout("tcp", addr, s.rt.cfg.DialTimeout)
				if dialed {
					s.rt.stats.redials.Add(1)
				}
				dialed = true
				if err != nil {
					// Unreachable peer: the batch is lost (best
					// effort) and the next attempt waits a jittered
					// backoff, so a dead peer costs one dial per
					// window instead of one per message.
					s.rt.stats.drop(dropUnreachable, len(batch))
					select {
					case <-s.rt.quit:
						return
					case <-time.After(jitter(backoff)):
					}
					if backoff *= 2; backoff > backoffMax {
						backoff = backoffMax
					}
					continue
				}
				if !s.rt.track(c) {
					return // shutting down; track closed c
				}
				conn, bw = c, bufio.NewWriter(c)
				// The preface rides the first batch's flush: one write
				// announces the codec version for the whole connection.
				_, _ = bw.Write(proto.FramePreface[:])
				dialedAddr = addr
				backoff = backoffMin
			}
			// One deadline serves the whole batch: the per-message work
			// inside the loop is encoding only.
			_ = conn.SetWriteDeadline(time.Now().Add(time.Minute))
			framed, size := len(batch), 0
			for _, m := range batch {
				size += m.msg.WireSize()
			}
			buf := proto.GetBufferFor(size)
			for _, m := range batch {
				var ferr error
				if buf.B, ferr = proto.AppendFrame(buf.B, m.from, m.msg); ferr != nil {
					// Over the frame cap: drop this message alone (best
					// effort) instead of poisoning the connection for
					// the whole batch.
					framed--
					s.rt.stats.drop(dropOversize, 1)
					s.rt.cfg.Logf("rt(%s): %v", s.rt.cfg.ID, ferr)
				}
			}
			if framed == 0 {
				// Nothing was framed, so nothing is written, flushed or
				// counted; a fresh connection's preface stays buffered
				// for the next batch.
				proto.PutBuffer(buf)
				continue
			}
			_, werr := bw.Write(buf.B)
			proto.PutBuffer(buf)
			if werr == nil {
				werr = bw.Flush()
			}
			if werr != nil {
				// Broken connection: delivery of the whole batch is
				// unknown (the frames land in the bufio buffer, so a
				// flush error loses envelopes that "wrote fine") —
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
		resetTimer(idle, s.rt.cfg.IdleTimeout)
	}
}

// resetTimer re-arms t, draining a stale tick first so an expiry that
// raced the flush loop does not fire immediately.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// jitter spreads d uniformly over [d/2, 3d/2) so reconnecting peers do
// not synchronize their dials.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}
