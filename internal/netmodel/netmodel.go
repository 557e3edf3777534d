// Package netmodel provides the network models used by the simulator:
// the paper's confined environment (a dedicated cluster on a single
// 100 Mbit/s switch) and its real-life environment (best-effort
// Internet paths between sites, with lower bandwidth, higher latency,
// jitter and loss).
//
// The model is a per-node full-duplex link into an ideal core. A
// message of S bytes sent at time t:
//
//  1. queues on the sender's uplink: occupies it for S/upBW seconds,
//     starting when the uplink is free;
//  2. propagates for the path latency (plus jitter);
//  3. queues on the receiver's downlink for S/downBW seconds.
//
// This reproduces the contention that shapes the paper's size sweeps
// (16 concurrent 100 MB submissions share the client's link) while
// staying cheap enough to simulate thousands of nodes.
//
// The model also implements partitions and one-way visibility masks,
// used by the figure 11 experiment where components hold inconsistent
// views of the system.
package netmodel

import (
	"math/rand"
	"time"

	"rpcv/internal/proto"
)

// LinkClass describes one node's attachment to the network.
type LinkClass struct {
	// UpBandwidth and DownBandwidth are in bytes per second.
	UpBandwidth   float64
	DownBandwidth float64
	// Latency is the one-way propagation delay contribution of this
	// endpoint; the path latency is the sum of both endpoints'.
	Latency time.Duration
	// Jitter is the maximum extra random delay, uniform in [0,Jitter).
	Jitter time.Duration
	// Loss is the probability in [0,1) that a message is dropped.
	Loss float64
}

// Net is a stateful network model implementing sim.Network.
type Net struct {
	defaultClass LinkClass
	classes      map[proto.NodeID]LinkClass
	links        map[proto.NodeID]*linkState
	rng          *rand.Rand

	// rules holds the directed block rules and group partition. It is
	// shared — the same Rules can drive a real-TCP grid.LinkFaults
	// proxy so simulated and live grids see identical fault schedules.
	rules *Rules
}

type pair struct{ from, to proto.NodeID }

type linkState struct {
	upFree   time.Time
	downFree time.Time
}

// New creates a network where every node not given a specific class
// uses def.
func New(def LinkClass, seed int64) *Net {
	if seed == 0 {
		seed = 1
	}
	return &Net{
		defaultClass: def,
		classes:      make(map[proto.NodeID]LinkClass),
		links:        make(map[proto.NodeID]*linkState),
		rng:          rand.New(rand.NewSource(seed)),
		rules:        NewRules(),
	}
}

// Rules exposes the fault-rule set so the same directed blocks and
// partitions can be shared with a real-TCP grid (grid.LinkFaults).
func (n *Net) Rules() *Rules { return n.rules }

// SetClass overrides the link class of one node (e.g. a well-provisioned
// dedicated coordinator among desktop workers).
func (n *Net) SetClass(id proto.NodeID, c LinkClass) { n.classes[id] = c }

// Class returns the link class of a node.
func (n *Net) Class(id proto.NodeID) LinkClass {
	if c, ok := n.classes[id]; ok {
		return c
	}
	return n.defaultClass
}

// BlockLink drops all messages from -> to (one-way), until HealLink.
// This implements the paper's "hide the existence of the Lille
// coordinator to the servers" style of forced inconsistent views.
func (n *Net) BlockLink(from, to proto.NodeID) { n.rules.BlockLink(from, to) }

// HealLink re-enables the link.
func (n *Net) HealLink(from, to proto.NodeID) { n.rules.HealLink(from, to) }

// BlockBoth drops messages in both directions between a and b.
func (n *Net) BlockBoth(a, b proto.NodeID) { n.rules.BlockBoth(a, b) }

// HealBoth re-enables both directions.
func (n *Net) HealBoth(a, b proto.NodeID) { n.rules.HealBoth(a, b) }

// Partition assigns nodes to groups; nodes in different groups cannot
// communicate. Call with nil to clear. Nodes absent from the map are in
// group 0.
func (n *Net) Partition(group map[proto.NodeID]int) { n.rules.Partition(group) }

// Transfer implements sim.Network.
func (n *Net) Transfer(from, to proto.NodeID, size int, now time.Time) (time.Time, bool) {
	if from == to {
		return now, true // loopback: free
	}
	if n.rules.Blocked(from, to) {
		return time.Time{}, false
	}
	cf, ct := n.Class(from), n.Class(to)
	if p := cf.Loss + ct.Loss; p > 0 && n.rng.Float64() < p {
		return time.Time{}, false
	}

	lf, lt := n.link(from), n.link(to)

	// Uplink serialization at the sender.
	start := now
	if lf.upFree.After(start) {
		start = lf.upFree
	}
	upDone := start.Add(txTime(size, cf.UpBandwidth))
	lf.upFree = upDone

	// Propagation.
	prop := cf.Latency + ct.Latency
	if j := cf.Jitter + ct.Jitter; j > 0 {
		prop += time.Duration(n.rng.Int63n(int64(j)))
	}
	arrive := upDone.Add(prop)

	// Downlink serialization at the receiver.
	if lt.downFree.After(arrive) {
		arrive = lt.downFree
	}
	done := arrive.Add(txTime(size, ct.DownBandwidth))
	lt.downFree = done
	return done, true
}

func (n *Net) link(id proto.NodeID) *linkState {
	l, ok := n.links[id]
	if !ok {
		l = &linkState{}
		n.links[id] = l
	}
	return l
}

func txTime(size int, bw float64) time.Duration {
	if bw <= 0 {
		return 0
	}
	return time.Duration(float64(size) / bw * float64(time.Second))
}

// ---------------------------------------------------------------------
// Canonical environments
// ---------------------------------------------------------------------

// Confined returns the paper's confined experimental platform: every
// node on one 48-port 100 Mbit/s Ethernet switch (12.5 MB/s full
// duplex), sub-millisecond latency, no jitter, no loss.
func Confined(seed int64) *Net {
	return New(LinkClass{
		UpBandwidth:   12.5e6,
		DownBandwidth: 12.5e6,
		Latency:       50 * time.Microsecond,
		Jitter:        0,
		Loss:          0,
	}, seed)
}

// Internet returns the real-life environment: desktop nodes behind
// ~8 Mbit/s best-effort paths, ~15 ms one-way latency per endpoint
// (≈30 ms RTT between sites, like Orsay–Lille), visible jitter and a
// small loss rate. Dedicated coordinator machines should be upgraded
// with SetClass(CoordinatorClass()).
func Internet(seed int64) *Net {
	return New(LinkClass{
		UpBandwidth:   1.0e6,
		DownBandwidth: 1.0e6,
		Latency:       15 * time.Millisecond,
		Jitter:        10 * time.Millisecond,
		Loss:          0.001,
	}, seed)
}

// CoordinatorClass is the link class of the dedicated coordinator
// machines of the real-life testbed (university servers: better
// bandwidth, same WAN latency).
func CoordinatorClass() LinkClass {
	return LinkClass{
		UpBandwidth:   5.0e6,
		DownBandwidth: 5.0e6,
		Latency:       10 * time.Millisecond,
		Jitter:        5 * time.Millisecond,
		Loss:          0.0005,
	}
}
