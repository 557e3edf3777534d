package detector

import (
	"testing"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/proto"
	"rpcv/internal/sim"
)

type host struct{ env node.Env }

func (h *host) Start(env node.Env)                      { h.env = env }
func (h *host) Receive(_ proto.NodeID, _ proto.Message) {}
func (h *host) Stop()                                   {}

func newEnv(t *testing.T) (*sim.World, node.Env) {
	t.Helper()
	w := sim.NewWorld(sim.Config{Seed: 1})
	h := &host{}
	w.AddNode("n", h)
	w.Start("n")
	return w, h.env
}

func TestMonitorSuspectsSilentComponent(t *testing.T) {
	w, env := newEnv(t)
	var suspected []proto.NodeID
	m := NewMonitor(env, MonitorConfig{
		Timeout:   30 * time.Second,
		OnSuspect: func(id proto.NodeID) { suspected = append(suspected, id) },
	})
	m.Observe("peer")
	w.RunFor(29 * time.Second)
	if m.Suspected("peer") {
		t.Fatal("suspected before timeout")
	}
	w.RunFor(10 * time.Second)
	if !m.Suspected("peer") {
		t.Fatal("not suspected after timeout")
	}
	if len(suspected) != 1 || suspected[0] != "peer" {
		t.Fatalf("OnSuspect calls = %v, want [peer]", suspected)
	}
}

func TestMonitorHeartbeatsPreventSuspicion(t *testing.T) {
	w, env := newEnv(t)
	m := NewMonitor(env, MonitorConfig{Timeout: 30 * time.Second})
	m.Observe("peer")
	// Keep observing every 5 s for 2 minutes.
	for i := 0; i < 24; i++ {
		w.RunFor(5 * time.Second)
		m.Observe("peer")
	}
	if m.Suspected("peer") {
		t.Fatal("live component suspected")
	}
}

func TestMonitorRecoversOnReappearance(t *testing.T) {
	w, env := newEnv(t)
	count := 0
	m := NewMonitor(env, MonitorConfig{
		Timeout:   10 * time.Second,
		OnSuspect: func(proto.NodeID) { count++ },
	})
	m.Observe("peer")
	w.RunFor(time.Minute)
	if !m.Suspected("peer") {
		t.Fatal("not suspected")
	}
	m.Observe("peer") // intermittent crash ends: component reappears
	if m.Suspected("peer") {
		t.Fatal("still suspected after sign of life")
	}
	// Silence again: a second suspicion fires.
	w.RunFor(time.Minute)
	if count != 2 {
		t.Fatalf("OnSuspect fired %d times, want 2", count)
	}
}

func TestWatchStartsClockWithoutObservation(t *testing.T) {
	w, env := newEnv(t)
	m := NewMonitor(env, MonitorConfig{Timeout: 10 * time.Second})
	m.Watch("peer")
	w.RunFor(time.Minute)
	if !m.Suspected("peer") {
		t.Fatal("watched-but-silent component not suspected")
	}
	// Watch after Observe must not reset the clock.
	m.Observe("other")
	w.RunFor(5 * time.Second)
	m.Watch("other")
	w.RunFor(8 * time.Second)
	if !m.Suspected("other") {
		t.Fatal("Watch reset an existing observation clock")
	}
}

func TestSuspects(t *testing.T) {
	w, env := newEnv(t)
	m := NewMonitor(env, MonitorConfig{Timeout: 10 * time.Second})
	m.Observe("a")
	m.Observe("b")
	w.RunFor(time.Minute)
	if got := m.Suspects(); len(got) != 2 {
		t.Fatalf("suspects = %v, want 2", got)
	}
}

func TestCloseStopsSweeps(t *testing.T) {
	w, env := newEnv(t)
	fired := false
	m := NewMonitor(env, MonitorConfig{
		Timeout:   10 * time.Second,
		OnSuspect: func(proto.NodeID) { fired = true },
	})
	m.Observe("peer")
	m.Close()
	w.RunFor(time.Minute)
	if fired {
		t.Fatal("OnSuspect fired after Close")
	}
}

func TestBeaterFiresImmediatelyThenPeriodically(t *testing.T) {
	w, env := newEnv(t)
	var beats []time.Duration
	b := NewBeater(env, 5*time.Second, func() { beats = append(beats, w.Elapsed()) })
	w.RunFor(time.Minute)
	b.Close()
	if len(beats) == 0 || beats[0] != 0 {
		t.Fatalf("first beat at %v, want 0 (announce on boot)", beats)
	}
	// ~12 beats in a minute at 5 s ±10 % jitter.
	if len(beats) < 10 || len(beats) > 15 {
		t.Fatalf("%d beats in a minute, want ~12", len(beats))
	}
	// Jittered, not perfectly periodic.
	distinct := make(map[time.Duration]bool)
	for i := 1; i < len(beats); i++ {
		distinct[beats[i]-beats[i-1]] = true
	}
	if len(distinct) < 2 {
		t.Fatal("beats show no jitter")
	}
}

func TestBeaterCloseStops(t *testing.T) {
	w, env := newEnv(t)
	count := 0
	b := NewBeater(env, 5*time.Second, func() { count++ })
	w.RunFor(12 * time.Second)
	n := count
	b.Close()
	w.RunFor(time.Minute)
	if count != n {
		t.Fatalf("beats after Close: %d -> %d", n, count)
	}
}

func TestDefaultsApplied(t *testing.T) {
	w, env := newEnv(t)
	m := NewMonitor(env, MonitorConfig{})
	m.Observe("peer")
	w.RunFor(DefaultTimeout - time.Second)
	if m.Suspected("peer") {
		t.Fatal("suspected before default timeout")
	}
	w.RunFor(DefaultTimeout)
	if !m.Suspected("peer") {
		t.Fatal("not suspected after default timeout")
	}
}
