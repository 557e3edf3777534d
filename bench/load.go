package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"rpcv/internal/gridrpc"
)

// callTimeout is how long past its due time a call may take before it
// counts as failed.
const callTimeout = 5 * time.Second

// stampLen is the (session, seq) stamp that opens every echo payload.
const stampLen = 12

// callRec is the bench's record of one call. The submitter fills the
// first group before starting the waiter; the waiter fills the second;
// both are read only after every waiter has returned.
type callRec struct {
	session int
	seq     uint64
	due     time.Time     // intended send time (open loop) or CallAsync entry (closed loop)
	lag     time.Duration // open loop: how long after it could have entered CallAsync the generator did

	done   time.Time
	failed string // "" for a verified result
}

func (r *callRec) latency() time.Duration { return r.done.Sub(r.due) }

// subSeed derives an independent RNG stream from the run seed.
func subSeed(seed int64, stream, index int) *rand.Rand {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9 + uint64(index)*0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

const (
	streamPayload = iota + 1
	streamArrivals
	streamFaults
	streamSetup
)

// arrivals returns the Poisson arrival offsets of one session over
// [0, dur): exponential gaps at rate calls per second.
func arrivals(seed int64, session int, rate float64, dur time.Duration) []time.Duration {
	rng := subSeed(seed, streamArrivals, session)
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// payloadSource makes one session's parameter payloads: a (session,
// seq) stamp followed by bytes cut from a seeded random block, so every
// echo can be checked byte for byte and no two calls share a payload.
type payloadSource struct {
	session int
	size    int
	block   []byte
}

func newPayloadSource(seed int64, session, size int) *payloadSource {
	p := &payloadSource{session: session, size: size}
	if size > stampLen {
		p.block = make([]byte, 2*size)
		subSeed(seed, streamPayload, session).Read(p.block)
	}
	return p
}

func (p *payloadSource) next(seq uint64) []byte {
	out := make([]byte, p.size)
	binary.BigEndian.PutUint32(out, uint32(p.session))
	binary.BigEndian.PutUint64(out[4:], seq)
	if body := out[stampLen:]; len(body) > 0 {
		off := int(seq*7919) % (len(p.block) - len(body))
		copy(body, p.block[off:])
	}
	return out
}

// driver issues one workload's calls against a grid through the public
// GridRPC API and keeps a record of each.
type driver struct {
	g    *grid
	wl   workload
	seed int64

	start  time.Time // warm-up begins
	t0, t1 time.Time // the measured window

	waiters sync.WaitGroup
	recs    [nSessions][]*callRec
	nextSeq [nSessions]uint64 // calls issued so far on each fresh session
}

// params builds the next call's parameters for a session.
func (d *driver) params(src *payloadSource, seq uint64) []byte {
	if d.wl.service == "sleep" {
		return []byte(sleepParam)
	}
	return src.next(seq)
}

// issue submits one call and parks a waiter for it. tokens, when
// non-nil, gets a token back when the call ends (closed loop).
func (d *driver) issue(ctx context.Context, s int, src *payloadSource, due time.Time, lag time.Duration, tokens chan<- struct{}) *callRec {
	d.nextSeq[s]++
	seq := d.nextSeq[s]
	params := d.params(src, seq)
	rec := &callRec{session: s, seq: seq, due: due, lag: lag}
	d.recs[s] = append(d.recs[s], rec)
	h, err := d.g.sessions[s].CallAsync(d.wl.service, params)
	if err == nil && h.Seq() != seq {
		err = fmt.Errorf("session %d assigned seq %d, want %d", s, h.Seq(), seq)
	}
	if err != nil {
		rec.done, rec.failed = time.Now(), err.Error()
		if tokens != nil {
			tokens <- struct{}{}
		}
		return rec
	}
	d.waiters.Add(1)
	go d.wait(ctx, rec, h, params, tokens)
	return rec
}

func (d *driver) wait(ctx context.Context, rec *callRec, h *gridrpc.Handle, params []byte, tokens chan<- struct{}) {
	defer d.waiters.Done()
	wctx, cancel := context.WithDeadline(ctx, rec.due.Add(callTimeout))
	out, err := h.Wait(wctx)
	cancel()
	rec.done = time.Now()
	switch {
	case err != nil:
		rec.failed = err.Error()
	case d.wl.service == "sleep":
		if string(out) != "ok" {
			rec.failed = fmt.Sprintf("sleep returned %q", out)
		}
	case !bytes.Equal(out, params):
		rec.failed = fmt.Sprintf("echo returned %d bytes that differ from the %d sent", len(out), len(params))
	}
	if tokens != nil {
		tokens <- struct{}{}
	}
}

// sleepUntil blocks until t or ctx ends; false means ctx ended.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// openLoop sends session s's calls on its Poisson schedule whatever the
// grid does; each call is timed from when it was due. A call can enter
// CallAsync once it is due and the previous CallAsync has returned
// (a session has one submitter); what the generator adds to that is its
// own lateness, the lag.
func (d *driver) openLoop(ctx context.Context, s int) {
	src := newPayloadSource(d.seed, s, d.wl.payload)
	free := d.start
	for _, at := range arrivals(d.seed, s, d.wl.openRate, d.t1.Sub(d.start)) {
		due := d.start.Add(at)
		if !sleepUntil(ctx, due) {
			return
		}
		if due.After(free) {
			free = due
		}
		d.issue(ctx, s, src, due, time.Since(free), nil)
		free = time.Now()
	}
}

// closedLoop keeps wl.window calls of session s in flight until the
// window ends.
func (d *driver) closedLoop(ctx context.Context, s int) {
	src := newPayloadSource(d.seed, s, d.wl.payload)
	// Sized to the in-flight window: every issued call returns exactly
	// one token, so sends never block.
	tokens := make(chan struct{}, d.wl.window)
	for i := 0; i < d.wl.window; i++ {
		tokens <- struct{}{}
	}
	end := time.NewTimer(time.Until(d.t1))
	defer end.Stop()
	for {
		select {
		case <-tokens:
			d.issue(ctx, s, src, time.Now(), 0, tokens)
		case <-end.C:
			return
		case <-ctx.Done():
			return
		}
	}
}

// run drives every session from start until t1, then waits for the
// outstanding calls (each gives up callTimeout after it was due).
func (d *driver) run(ctx context.Context) {
	var submitters sync.WaitGroup
	for s := 0; s < nSessions; s++ {
		submitters.Add(1)
		go func(s int) {
			defer submitters.Done()
			if d.wl.openRate > 0 {
				d.openLoop(ctx, s)
			} else {
				d.closedLoop(ctx, s)
			}
		}(s)
	}
	submitters.Wait()
	d.waiters.Wait()
}

// firstCall makes one verified call on session 0 — the end of set-up.
func (d *driver) firstCall(ctx context.Context) error {
	src := newPayloadSource(d.seed, 0, d.wl.payload)
	rec := d.issue(ctx, 0, src, time.Now(), 0, nil)
	d.waiters.Wait()
	d.recs[0] = d.recs[0][:0] // not part of any window
	if rec.failed != "" {
		return fmt.Errorf("first call: %s", rec.failed)
	}
	return nil
}
