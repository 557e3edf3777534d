// Package gridrpc is RPC-V's public programming interface: a Go
// rendition of the GridRPC API (Seymour et al., GRID 2002) as the paper
// adopts it.
//
// Per the paper (§4.2), the RPC-V API is GridRPC-compliant *except* the
// Remote Function Handle Management functions, which are deliberately
// absent: the coordinator's virtualization and forwarding make function
// handles unnecessary — the client never connects to a server directly,
// it only names the service. Any client application written against
// the GridRPC call/wait/probe subset runs on RPC-V.
//
// The mapping from the C API:
//
//	grpc_initialize  -> Dial
//	grpc_call        -> Session.Call (blocking)
//	grpc_call_async  -> Session.CallAsync (returns a *Handle)
//	grpc_probe       -> Handle.Probe
//	grpc_wait        -> Handle.Wait
//	grpc_wait_all    -> Session.WaitAll
//	grpc_finalize    -> Session.Close
//
// A Session hosts an RPC-V client node on the real-time runtime
// (internal/rt); everything underneath — message logging, fault
// suspicion, coordinator failover, synchronization — is automatic and
// transparent, which is the paper's headline property.
package gridrpc

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/msglog"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/shard"
)

// Config parameterizes a Session.
type Config struct {
	// User identifies the grid user (certificate subject in a full
	// deployment). Default "anonymous".
	User string
	// Session is the session unique ID; 0 derives a fresh one from
	// crypto/rand entropy (collision-free even for sessions created in
	// the same clock instant). A relaunched client instance passes the
	// previous value to resume the session by (user, session, rpc) IDs:
	// the coordinator still holds every result no poll of the session
	// has acknowledged (see proto.Poll), and the sequence counter goes
	// on where the session stood. The session's calls are numbered once a
	// coordinator has said where that is, whether or not DiskDir kept it
	// (see CallAsync).
	Session uint64
	// Coordinators maps coordinator IDs to TCP addresses — the finite
	// list of known coordinators.
	Coordinators map[string]string
	// ListenAddr is this client's address for coordinator replies.
	// Default "127.0.0.1:0".
	ListenAddr string
	// DiskDir backs the client's message log with a write-ahead log
	// (internal/store): concurrent CallAsync submissions' log entries
	// share group-commit fsyncs. Empty means volatile.
	DiskDir string
	// Logging selects the message-logging strategy. The paper
	// recommends non-blocking pessimistic: submission time close to
	// optimistic, shorter re-submission after a double crash.
	Logging msglog.Strategy
	// PollPeriod is the result-pull period (default 1 s).
	PollPeriod time.Duration
	// SuspicionTimeout is the coordinator fault-suspicion timeout
	// (default 30 s, the paper's setting).
	SuspicionTimeout time.Duration
	// Logf receives trace output; nil silences it.
	Logf func(format string, args ...any)
	// Shard is the cached consistent-hash shard map of a sharded
	// deployment (nil: unsharded). The session routes to its owner ring
	// and follows redirects carrying newer maps automatically.
	Shard *shard.Map
	// Obs, when non-nil, wires the session's client and runtime into an
	// observability plane (metrics registry + lifecycle tracer; see
	// internal/obs). Nil disables instrumentation.
	Obs *obs.Observer
}

// ErrCancelled is returned by Wait when the context ends first.
var ErrCancelled = errors.New("gridrpc: wait cancelled")

// ErrClosed is returned by calls on a closed session.
var ErrClosed = errors.New("gridrpc: session closed")

// RemoteError wraps a failure reported by the remote service itself
// (the RPC executed, at least once, and returned an error).
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "gridrpc: remote: " + e.Msg }

// Session is a connected RPC-V client.
type Session struct {
	cfg Config
	rtm *rt.Runtime
	cli *client.Client

	// resumes: the caller chose the session ID, so the session may have a
	// history, and calls are numbered through client.AfterSync until the
	// first one has been (numbering, read and set on the loop).
	resumes   bool
	numbering bool

	// pending holds the handles of the calls without a result, queued
	// those of the calls without a number yet. A result belongs to its
	// handle: the session keeps none, so a result lives exactly as long
	// as the application holds the handle.
	mu      sync.Mutex
	pending map[proto.RPCSeq]*Handle
	queued  map[*Handle]struct{}
	closed  bool
}

// sessionFallback disambiguates clock-derived session IDs when the
// entropy source is unavailable.
var sessionFallback atomic.Uint64

// newSessionID derives a fresh session unique ID. The clock alone is
// not enough: two sessions created in the same instant — easy with
// concurrent Dials, guaranteed on platforms with coarse clocks — would
// share a session ID and interleave their (user, session, rpc)
// CallIDs, corrupting both clients' result retrieval. Entropy from
// crypto/rand makes uniqueness independent of clock resolution.
func newSessionID() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
	// Entropy unavailable (or the astronomically unlikely zero draw):
	// fall back to the clock mixed with a process-unique counter.
	id := uint64(time.Now().UnixNano()) + sessionFallback.Add(1)
	if id == 0 {
		id = 1 // zero means "derive one" in Config
	}
	return id
}

// Dial connects a new session to the grid (grpc_initialize).
func Dial(cfg Config) (*Session, error) {
	if len(cfg.Coordinators) == 0 {
		return nil, fmt.Errorf("gridrpc: no coordinators configured")
	}
	if cfg.User == "" {
		cfg.User = "anonymous"
	}
	resumes := cfg.Session != 0
	if !resumes {
		cfg.Session = newSessionID()
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	s := &Session{cfg: cfg, resumes: resumes, pending: make(map[proto.RPCSeq]*Handle), queued: make(map[*Handle]struct{})}

	var coordIDs []proto.NodeID
	dir := rt.Directory{}
	for id, addr := range cfg.Coordinators {
		coordIDs = append(coordIDs, proto.NodeID(id))
		dir[proto.NodeID(id)] = addr
	}

	s.cli = client.New(client.Config{
		User:             proto.UserID(cfg.User),
		Session:          proto.SessionID(cfg.Session),
		Coordinators:     coordIDs,
		PollPeriod:       cfg.PollPeriod,
		SuspicionTimeout: cfg.SuspicionTimeout,
		Logging:          cfg.Logging,
		Shard:            cfg.Shard,
		OnResult:         s.onResult,
		Obs:              cfg.Obs,
	})

	rtm, err := rt.Start(rt.Config{
		ID:         s.ID(),
		ListenAddr: cfg.ListenAddr,
		Directory:  dir,
		DiskDir:    cfg.DiskDir,
		Handler:    s.cli,
		Logf:       logf,
		Obs:        cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	s.rtm = rtm
	return s, nil
}

// Addr returns the session's listen address (coordinators reply here;
// in a NATed deployment the coordinator learns it from the connection).
func (s *Session) Addr() string { return s.rtm.Addr() }

// ID returns the session's node ID, client-<user>-<session>: the name
// coordinators reply to, which their directories must map to Addr.
func (s *Session) ID() proto.NodeID {
	return proto.NodeID(fmt.Sprintf("client-%s-%d", s.cfg.User, s.cfg.Session))
}

// onResult hands a result to its call's handle. A result no handle
// waits for — one of an earlier run of the session — has no taker. A
// result of blob size is acknowledged at once: what the coordinator
// keeps of the call until then is twice that, and the poll timer would
// have it keep every such call of the last period.
func (s *Session) onResult(res proto.Result, _ time.Time) {
	if h := s.take(res.Call.Seq); h != nil {
		h.res = res
		close(h.ready)
	}
	if len(res.Output) >= proto.BlobMin {
		s.cli.AckSoon()
	}
}

// take removes and returns seq's pending handle, so that exactly one
// of onResult and Close completes it.
func (s *Session) take(seq proto.RPCSeq) *Handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.pending[seq]
	delete(s.pending, seq)
	return h
}

// Handle tracks one asynchronous call (grpc_sessionid_t) and owns its
// result: ready is closed once res, or err for a call the session was
// closed under, is set. numbered is nil for a call that had its seq
// when CallAsync returned, and otherwise closed once it has.
type Handle struct {
	numbered chan struct{}
	seq      proto.RPCSeq
	ready    chan struct{}
	res      proto.Result
	err      error
}

// Seq returns the RPC unique ID of this call within the session, once
// the call has one (see CallAsync); 0 if the session was closed first.
func (h *Handle) Seq() uint64 {
	if h.numbered != nil {
		<-h.numbered
	}
	return uint64(h.seq)
}

// CallAsync submits a non-blocking call (grpc_call_async). Consecutive
// CallAsync invocations lead to concurrent executions server-side.
//
// In a session with a fresh ID the call is numbered and on its way when
// CallAsync returns. In a session whose ID the caller chose, calls wait
// for their numbers, in order, until a coordinator has answered the
// session's synchronization: an earlier run may have used and
// acknowledged seqs this one's store no longer shows, and a call
// numbered among them would never run. Nothing else waits — CallAsync
// returns, Wait and Probe answer as ever — except Seq.
//
// params belongs to the session from the call until the call's result
// is delivered (Wait returns it, or Probe says it is in): the bytes are
// sent from that slice, resent from it after a failure, and the
// submission log keeps that very slice rather than a copy of it. The
// caller must not modify it meanwhile; afterwards it is the caller's
// again.
//
// A call allocates its Handle and what the call itself keeps: the call
// reaches the loop in a pooled request whose run is bound once, as
// rt.Runtime.Do's waiter is. Only a call that waits for its number —
// before a resumed session's first SyncReply — allocates the closure it
// waits in.
func (s *Session) CallAsync(service string, params []byte) (*Handle, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed // and the loop is gone: nothing to hand the call to
	}
	h := &Handle{ready: make(chan struct{})}
	q := requests.Get().(*request)
	q.s, q.h, q.service, q.params = s, h, service, params
	s.rtm.Do(q.run)
	accepted := q.accepted
	*q = request{run: q.run}
	requests.Put(q)
	if !accepted { // closed, before or in between
		return nil, ErrClosed
	}
	return h, nil
}

// request is one CallAsync on its way to the loop; accepted is its
// outcome, false if the session was closed.
type request struct {
	s        *Session
	h        *Handle
	service  string
	params   []byte
	accepted bool
	run      func() // submit, bound once
}

var requests = sync.Pool{New: func() any {
	q := &request{}
	q.run = q.submit
	return q
}}

// submit numbers the call on the loop, or queues it until the session
// may number calls.
func (q *request) submit() {
	s := q.s
	if s.resumes && !s.numbering {
		if q.accepted = s.queue(q.h); q.accepted {
			h, service, params := q.h, q.service, q.params
			s.cli.AfterSync(func() {
				s.numbering = true
				s.number(h, service, params)
			})
		}
		return
	}
	q.accepted = s.number(q.h, q.service, q.params)
}

// queue registers a call that waits for its number; false if the
// session is closed.
func (s *Session) queue(h *Handle) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	h.numbered = make(chan struct{})
	s.queued[h] = struct{}{}
	return true
}

// number submits h's call and registers the handle, on the loop that
// delivers results and in one step, so that no result can arrive before
// the handle is there; false if the session is closed (Close has failed
// the handle if it was queued).
func (s *Session) number(h *Handle, service string, params []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	h.seq = s.cli.Submit(service, params, 0, 0)
	s.pending[h.seq] = h
	if h.numbered != nil {
		delete(s.queued, h)
		close(h.numbered)
	}
	return true
}

// Call submits a blocking call (grpc_call): it returns when the result
// is available, the service failed, or ctx ends. params is the session's
// until then (see CallAsync) — when ctx ends first, until the result
// comes in all the same.
func (s *Session) Call(ctx context.Context, service string, params []byte) ([]byte, error) {
	h, err := s.CallAsync(service, params)
	if err != nil {
		return nil, err
	}
	return h.Wait(ctx)
}

// Probe reports whether the call has completed (grpc_probe).
func (h *Handle) Probe() bool {
	select {
	case <-h.ready:
		return h.err == nil
	default:
		return false
	}
}

// Wait blocks until the call completes (grpc_wait), the session is
// closed (ErrClosed) or ctx ends. The result arrives even across
// coordinator crashes and client failovers, as long as the progress
// condition holds; it stays with the handle, so Wait may be called
// again.
func (h *Handle) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-h.ready:
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %v", ErrCancelled, ctx.Err())
	}
	switch {
	case h.err != nil:
		return nil, h.err
	case h.res.Err != "":
		return nil, &RemoteError{Msg: h.res.Err}
	}
	return h.res.Output, nil
}

// WaitAll waits for every listed handle (grpc_wait_all).
func (s *Session) WaitAll(ctx context.Context, handles []*Handle) error {
	for _, h := range handles {
		if _, err := h.Wait(ctx); err != nil {
			var remote *RemoteError
			if errors.As(err, &remote) {
				continue // the call completed; its error is per-call
			}
			return err
		}
	}
	return nil
}

// Stats exposes the underlying client counters (submitted, results,
// failovers...), mainly for tooling.
func (s *Session) Stats() client.Stats {
	var st client.Stats
	s.rtm.Do(func() { st = s.cli.StatsNow() })
	return st
}

// Ping proves the session's event loop is live within d — the
// liveness probe behind rpcv-client's /healthz.
func (s *Session) Ping(d time.Duration) error { return s.rtm.Ping(d) }

// Close ends the session (grpc_finalize): every call still without a
// result fails with ErrClosed, in Wait now or later. Ongoing executions
// continue server-side — client disconnection is a normal event; a
// later session with the same (user, session) IDs can retrieve the
// results this one never acknowledged.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	pending, queued := s.pending, s.queued
	s.pending, s.queued = nil, nil // nothing registers after closed is set
	s.mu.Unlock()
	for _, h := range pending {
		h.err = ErrClosed
		close(h.ready)
	}
	for h := range queued {
		h.err = ErrClosed
		close(h.numbered)
		close(h.ready)
	}
	s.rtm.Close()
}
