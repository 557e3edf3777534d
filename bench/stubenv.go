package main

import (
	"math/rand"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/proto"
	"rpcv/internal/store"
)

// stubEnv is a bench-owned node.Env for timing one handler call at a
// time: a memory disk, a clock that moves only when told to, timers
// that fire on advance, and Send captured instead of delivered. It is
// single-goroutine, like the event loop it stands in for.
type stubEnv struct {
	id     proto.NodeID
	now    time.Time
	disk   *store.Memory
	rng    *rand.Rand
	timers []*stubTimer
	sent   []sentMsg
}

type sentMsg struct {
	to  proto.NodeID
	msg proto.Message
}

type stubTimer struct {
	at      time.Time
	fn      func()
	stopped bool
}

func (t *stubTimer) Stop() { t.stopped = true }

var _ node.Env = (*stubEnv)(nil)

func newStubEnv(id proto.NodeID) *stubEnv {
	return &stubEnv{
		id:   id,
		now:  time.Unix(1_700_000_000, 0),
		disk: store.NewMemory(),
		rng:  rand.New(rand.NewSource(1)),
	}
}

func (e *stubEnv) Self() proto.NodeID  { return e.id }
func (e *stubEnv) Now() time.Time      { return e.now }
func (e *stubEnv) Disk() node.Disk     { return e.disk }
func (e *stubEnv) Rand() *rand.Rand    { return e.rng }
func (e *stubEnv) Logf(string, ...any) {}

func (e *stubEnv) Send(to proto.NodeID, msg proto.Message) {
	e.sent = append(e.sent, sentMsg{to, msg})
}

func (e *stubEnv) After(d time.Duration, fn func()) node.Timer {
	t := &stubTimer{at: e.now.Add(d), fn: fn}
	e.timers = append(e.timers, t)
	return t
}

// advance moves the clock by d, firing every timer that falls due in
// deadline order — those armed by a fired timer included.
func (e *stubEnv) advance(d time.Duration) {
	end := e.now.Add(d)
	for {
		next := -1
		for i, t := range e.timers {
			if t.stopped {
				continue
			}
			if !t.at.After(end) && (next < 0 || t.at.Before(e.timers[next].at)) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		t := e.timers[next]
		e.timers = append(e.timers[:next], e.timers[next+1:]...)
		if t.at.After(e.now) {
			e.now = t.at
		}
		t.fn()
	}
	e.now = end
	live := e.timers[:0]
	for _, t := range e.timers {
		if !t.stopped {
			live = append(live, t)
		}
	}
	e.timers = live
}

// take returns the messages sent since the last take.
func (e *stubEnv) take() []sentMsg {
	out := e.sent
	e.sent = nil
	return out
}
