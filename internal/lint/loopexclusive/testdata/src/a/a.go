// Package a seeds loopexclusive's analysistest suite: every banned
// primitive flagged inside rpcv:loop-only code, every sanctioned idiom
// (go statements, select with default, loop-safe escapes, Do-wrapped
// closures, constructors, offloaded blocking bodies) proven silent.
package a

import (
	"sync"
	"time"

	"rt"
)

type handler struct {
	mu sync.Mutex
	n  int
}

//rpcv:loop-only
func (h *handler) Receive(ch chan int, done chan struct{}) {
	time.Sleep(time.Millisecond) // want `time.Sleep blocks the event loop`
	ch <- 1                      // want `channel send blocks the event loop`
	<-done                       // want `channel receive blocks the event loop`
	for range ch {               // want `ranging over a channel blocks the event loop`
	}
	select { // want `select without a default case blocks the event loop`
	case v := <-ch:
		_ = v
	}
	h.transitive()
}

// transitive is reached from Receive's walk: violations here are
// flagged without any annotation of its own.
func (h *handler) transitive() {
	var wg sync.WaitGroup
	wg.Wait() // want `sync.WaitGroup.Wait blocks the event loop`
}

//rpcv:loop-only
func selfDeadlock(r *rt.Runtime) {
	r.Do(func() {})               // want `deadlocks`
	r.Ping(time.Second)           // want `deadlocks`
	r.Close()                     // want `deadlocks`
	r.DoAsync(func() {})          // ok: async handoff never waits
	rt.SleepyHelper()             // want `call to rt.SleepyHelper reaches blocking code: time.Sleep blocks the event loop`
	r.After(time.Second, func() { // ok: loop timer registration
	})
}

//rpcv:loop-only
func sanctioned(ch chan int, done chan struct{}) {
	// Non-blocking channel work is the loop's bread and butter.
	select {
	case ch <- 1:
	default:
	}
	select {
	case v := <-ch:
		_ = v
	default:
	}
	close(done) // close never blocks
	// Mutexes are allowed: bounded critical sections, not unbounded waits.
	var h handler
	h.mu.Lock()
	h.n++
	h.mu.Unlock()
	// New goroutines leave the loop entirely.
	go func() {
		ch <- 2
		<-done
		time.Sleep(time.Millisecond)
	}()
	// time.AfterFunc callbacks run on the timer goroutine.
	time.AfterFunc(time.Second, func() {
		<-done
	})
	audited(ch)
}

//rpcv:loop-only
func selectBodyStillBlocks(ch, other chan int) {
	select {
	case v := <-ch:
		other <- v // want `channel send blocks the event loop`
	default:
	}
}

// audited is hand-audited: the walk must stop at the annotation.
//
//rpcv:loop-safe
func audited(ch chan int) {
	ch <- 1 // ok: rpcv:loop-safe
}

// ---------------------------------------------------------------------
// Loop-owned state
// ---------------------------------------------------------------------

// State is the event loop's private state.
//
//rpcv:loop-owned
type State struct {
	count int
	rtm   *rt.Runtime
}

// NewState is a constructor: plain field initialization is
// pre-publication and allowed.
func NewState(r *rt.Runtime) *State {
	s := &State{count: 1, rtm: r}
	s.count = 2
	return s
}

// bump is a method of a loop-owned type: implicitly loop-only, so the
// access is fine but blocking primitives are not.
func (s *State) bump() {
	s.count++
}

func (s *State) smuggled() {
	time.Sleep(time.Millisecond) // want `time.Sleep blocks the event loop`
}

func offLoopRead(s *State) int {
	return s.count // want `field count of rpcv:loop-owned State accessed off the event loop`
}

func offLoopWrite(s *State) {
	s.count = 7 // want `field count of rpcv:loop-owned State accessed off the event loop`
}

func marshalled(s *State, r *rt.Runtime) {
	r.Do(func() {
		s.count++ // ok: wrapped in rt.Do
	})
	r.DoAsync(func() {
		s.count-- // ok: wrapped in rt.DoAsync
	})
}

//rpcv:loop-only
func onLoopTouch(s *State) {
	s.count++ // ok: loop-only function
}

// ---------------------------------------------------------------------
// Blocking function values and Offload
// ---------------------------------------------------------------------

// Body is code the loop neither controls nor can bound. The walk cannot
// see through a function value, so the type carries the warning.
//
//rpcv:blocking
type Body func(p []byte) []byte

//rpcv:loop-only
func callsBlockingValue(b Body, registry map[string]Body) {
	b(nil)             // want `calling a Body value may block the event loop`
	registry["x"](nil) // want `calling a Body value may block the event loop`
	plain := func() {}
	plain() // ok: an ordinary function value
}

// offloaded hands the body to Offload: the first closure is off the
// loop (blocking is its purpose; loop-owned state is out of bounds even
// though a loop-only function built it), the second is the completion,
// back on the loop.
//
//rpcv:loop-only
func offloaded(s *State, r *rt.Runtime, b Body, done chan struct{}) {
	var out []byte
	r.Offload(func() {
		out = b(nil)                 // ok: off the loop
		time.Sleep(time.Millisecond) // ok
		<-done                       // ok
		s.count++                    // want `field count of rpcv:loop-owned State accessed off the event loop`
	}, func() {
		_ = out
		s.count++                    // ok: the completion runs on the loop
		time.Sleep(time.Millisecond) // want `time.Sleep blocks the event loop`
	})
}

// offloadedFromOffLoop: the completion is loop code wherever the call
// is made from.
func offloadedFromOffLoop(s *State, r *rt.Runtime, done chan struct{}) {
	r.Offload(func() {
		<-done // ok
	}, func() {
		s.count++ // ok
		<-done    // want `channel receive blocks the event loop`
	})
}
