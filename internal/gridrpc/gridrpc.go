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
	// previous value to retrieve results by (user, session, rpc) IDs.
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

	mu      sync.Mutex
	waiters map[proto.RPCSeq][]chan proto.Result
	done    map[proto.RPCSeq]proto.Result
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
	if cfg.Session == 0 {
		cfg.Session = newSessionID()
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	s := &Session{
		cfg:     cfg,
		waiters: make(map[proto.RPCSeq][]chan proto.Result),
		done:    make(map[proto.RPCSeq]proto.Result),
	}

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

	id := proto.NodeID(fmt.Sprintf("client-%s-%d", cfg.User, cfg.Session))
	rtm, err := rt.Start(rt.Config{
		ID:         id,
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

func (s *Session) onResult(res proto.Result, _ time.Time) {
	s.mu.Lock()
	s.done[res.Call.Seq] = res
	waiters := s.waiters[res.Call.Seq]
	delete(s.waiters, res.Call.Seq)
	s.mu.Unlock()
	for _, ch := range waiters {
		ch <- res
	}
}

// Handle tracks one asynchronous call (grpc_sessionid_t).
type Handle struct {
	s   *Session
	seq proto.RPCSeq
}

// Seq returns the RPC unique ID of this call within the session.
func (h *Handle) Seq() uint64 { return uint64(h.seq) }

// CallAsync submits a non-blocking call (grpc_call_async). Consecutive
// CallAsync invocations lead to concurrent executions server-side.
func (s *Session) CallAsync(service string, params []byte) (*Handle, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.mu.Unlock()
	var seq proto.RPCSeq
	s.rtm.Do(func() { seq = s.cli.Submit(service, params, 0, 0) })
	return &Handle{s: s, seq: seq}, nil
}

// Call submits a blocking call (grpc_call): it returns when the result
// is available, the service failed, or ctx ends.
func (s *Session) Call(ctx context.Context, service string, params []byte) ([]byte, error) {
	h, err := s.CallAsync(service, params)
	if err != nil {
		return nil, err
	}
	return h.Wait(ctx)
}

// Probe reports whether the call has completed (grpc_probe).
func (h *Handle) Probe() bool {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	_, ok := h.s.done[h.seq]
	return ok
}

// Wait blocks until the call completes (grpc_wait) or ctx ends. The
// result arrives even across coordinator crashes and client failovers,
// as long as the progress condition holds.
func (h *Handle) Wait(ctx context.Context) ([]byte, error) {
	h.s.mu.Lock()
	if res, ok := h.s.done[h.seq]; ok {
		h.s.mu.Unlock()
		return unpack(res)
	}
	if h.s.closed {
		h.s.mu.Unlock()
		return nil, ErrClosed
	}
	ch := make(chan proto.Result, 1)
	h.s.waiters[h.seq] = append(h.s.waiters[h.seq], ch)
	h.s.mu.Unlock()

	select {
	case res := <-ch:
		return unpack(res)
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %v", ErrCancelled, ctx.Err())
	}
}

func unpack(res proto.Result) ([]byte, error) {
	if res.Err != "" {
		return nil, &RemoteError{Msg: res.Err}
	}
	return res.Output, nil
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

// Close ends the session (grpc_finalize). Ongoing executions continue
// server-side — client disconnection is a normal event; a later session
// with the same (user, session) IDs can retrieve the results.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	waiters := s.waiters
	s.waiters = make(map[proto.RPCSeq][]chan proto.Result)
	s.mu.Unlock()
	_ = waiters // pending waiters unblock via ctx; results stop flowing
	s.rtm.Close()
}
