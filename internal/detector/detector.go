// Package detector implements RPC-V's unreliable fault detector.
//
// Because the Internet is asynchronous, fault detection can only ever
// be fault *suspicion*: a component is suspected when no "heart beat"
// signal has been received from it for a timeout, whatever the reason —
// crash, network failure or intermittent congestion. Wrong suspicions
// are a normal event the protocol must tolerate, not an error.
//
// In the paper's implementation the heartbeat period is 5 seconds and a
// fault is suspected after 30 seconds of silence (§5.1); both are
// configurable here, and the heartbeat-period/suspicion-timeout
// trade-off is explored by the ablation benchmarks.
//
// The package provides two halves:
//
//   - Monitor: the receiving side. Feed it Observe(id) on every sign of
//     life; it reports Suspects and invokes a callback on new
//     suspicion. Driven by an Env timer wheel.
//   - Beater: the sending side helper that emits a heartbeat callback
//     every period (the actual message construction is the caller's,
//     since heartbeats piggy-back work requests and list merges).
package detector

import (
	"time"

	"rpcv/internal/node"
	"rpcv/internal/proto"
)

// DefaultPeriod is the paper's heartbeat period.
const DefaultPeriod = 5 * time.Second

// DefaultTimeout is the paper's suspicion timeout.
const DefaultTimeout = 30 * time.Second

// Monitor tracks last-seen times for a set of components and suspects
// those silent for longer than the timeout.
type Monitor struct {
	env     node.Env
	timeout time.Duration
	onSusp  func(id proto.NodeID)

	lastSeen  map[proto.NodeID]time.Time
	suspected map[proto.NodeID]bool
	timer     node.Timer
	closed    bool
}

// MonitorConfig parameterizes a Monitor.
type MonitorConfig struct {
	// Timeout is the silence duration after which a component is
	// suspected. Default DefaultTimeout. Silence is evaluated every
	// Timeout/6: the heartbeat period, with the paper's values.
	Timeout time.Duration
	// OnSuspect is invoked (on the node's event loop) once per
	// transition from trusted to suspected.
	OnSuspect func(id proto.NodeID)
}

// NewMonitor creates and starts a monitor.
func NewMonitor(env node.Env, cfg MonitorConfig) *Monitor {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	m := &Monitor{
		env:       env,
		timeout:   cfg.Timeout,
		onSusp:    cfg.OnSuspect,
		lastSeen:  make(map[proto.NodeID]time.Time),
		suspected: make(map[proto.NodeID]bool),
	}
	m.schedule()
	return m
}

func (m *Monitor) schedule() {
	m.timer = m.env.After(m.timeout/6, func() {
		m.sweep()
		if !m.closed {
			m.schedule()
		}
	})
}

func (m *Monitor) sweep() {
	now := m.env.Now()
	for id, seen := range m.lastSeen {
		if m.suspected[id] {
			continue
		}
		if now.Sub(seen) >= m.timeout {
			m.suspected[id] = true
			if m.onSusp != nil {
				m.onSusp(id)
			}
		}
	}
}

// Observe records a sign of life from id (heartbeat or any message).
// A suspected component that reappears is trusted again — intermittent
// crashes and reconnections are normal events.
func (m *Monitor) Observe(id proto.NodeID) {
	m.lastSeen[id] = m.env.Now()
	if m.suspected[id] {
		delete(m.suspected, id)
	}
}

// Watch registers id without a sign of life yet: the suspicion clock
// starts now. Used when the coordinator assigns a task to a server and
// must detect the server's death even if it never speaks again.
func (m *Monitor) Watch(id proto.NodeID) {
	if _, ok := m.lastSeen[id]; !ok {
		m.lastSeen[id] = m.env.Now()
	}
}

// Suspected reports whether id is currently suspected.
func (m *Monitor) Suspected(id proto.NodeID) bool { return m.suspected[id] }

// Suspects returns the currently suspected components.
func (m *Monitor) Suspects() []proto.NodeID {
	var out []proto.NodeID
	for id := range m.suspected {
		out = append(out, id)
	}
	return out
}

// Tracked returns the number of components being watched.
func (m *Monitor) Tracked() int { return len(m.lastSeen) }

// Close stops the sweep timer.
func (m *Monitor) Close() {
	m.closed = true
	if m.timer != nil {
		m.timer.Stop()
	}
}

// Beater invokes a callback every period, with ±10 % deterministic
// jitter to avoid system-wide heartbeat synchronization. The callback
// typically sends a proto.Heartbeat to the preferred coordinator.
type Beater struct {
	env    node.Env
	period time.Duration
	beat   func()
	timer  node.Timer
	closed bool
}

// NewBeater creates and starts a beater; the first beat fires
// immediately (a node announces itself on boot).
func NewBeater(env node.Env, period time.Duration, beat func()) *Beater {
	if period <= 0 {
		period = DefaultPeriod
	}
	b := &Beater{env: env, period: period, beat: beat}
	b.timer = env.After(0, b.tick)
	return b
}

func (b *Beater) tick() {
	if b.closed {
		return
	}
	b.beat()
	jitter := time.Duration(b.env.Rand().Int63n(int64(b.period)/5)) - b.period/10
	b.timer = b.env.After(b.period+jitter, b.tick)
}

// Close stops the beater.
func (b *Beater) Close() {
	b.closed = true
	if b.timer != nil {
		b.timer.Stop()
	}
}
