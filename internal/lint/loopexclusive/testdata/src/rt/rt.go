// Package rt is a miniature stand-in for rpcv/internal/rt: just enough
// surface (Runtime with Do/DoAsync/Ping/Close/After/Offload) for the
// loopexclusive testdata to exercise the analyzer's rt-specific rules.
// The analyzer matches the runtime by package-path tail, so "rt" here
// plays the role of "rpcv/internal/rt" in the real tree.
package rt

import "time"

type Runtime struct {
	mailbox chan func()
}

func New() *Runtime { return &Runtime{mailbox: make(chan func(), 16)} }

func (r *Runtime) Do(fn func()) {
	done := make(chan struct{})
	r.mailbox <- func() { fn(); close(done) }
	<-done
}

func (r *Runtime) DoAsync(fn func()) {
	select {
	case r.mailbox <- fn:
	default:
	}
}

func (r *Runtime) Ping(d time.Duration) error { return nil }

func (r *Runtime) Close() {}

func (r *Runtime) After(d time.Duration, fn func()) {}

// Offload stands in for node.Offload and rt's Env: work runs on a
// goroutine of its own, done back on the loop.
func (r *Runtime) Offload(work, done func()) {
	go func() {
		work()
		r.DoAsync(done)
	}()
}

// SleepyHelper blocks; loop-only code in other packages must not reach
// it. The analyzer reports the cross-package chain at the caller's
// edge call site.
func SleepyHelper() {
	time.Sleep(time.Millisecond)
}
