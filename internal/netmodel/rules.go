package netmodel

import (
	"sync"

	"rpcv/internal/proto"
)

// Rules is a concurrency-safe set of directed link-fault rules: ordered
// (from, to) pairs that are blocked, plus an optional group partition
// (nodes in different groups cannot talk). The simulator's Net consults
// a Rules through its single-threaded Transfer path, and the real-TCP
// grid consults the same Rules from per-connection proxy goroutines
// (grid.LinkFaults) — so unlike the rest of this package, Rules is
// safe for concurrent use.
//
// A one-way block of from -> to drops (or, on the real grid,
// black-holes) traffic in that direction only; to -> from still flows.
// This is the asymmetric-partition primitive: a node that can be heard
// but cannot hear, or vice versa — the inconsistent-view regime the
// paper forces in its figure 11 experiment.
type Rules struct {
	mu      sync.Mutex
	blocked map[pair]bool
	group   map[proto.NodeID]int
	version uint64
}

// NewRules returns an empty rule set: nothing blocked, no partition.
func NewRules() *Rules {
	return &Rules{blocked: make(map[pair]bool)}
}

// BlockLink drops all traffic from -> to (one-way) until HealLink.
func (r *Rules) BlockLink(from, to proto.NodeID) {
	r.mu.Lock()
	r.blocked[pair{from, to}] = true
	r.version++
	r.mu.Unlock()
}

// HealLink re-enables the directed link from -> to.
func (r *Rules) HealLink(from, to proto.NodeID) {
	r.mu.Lock()
	delete(r.blocked, pair{from, to})
	r.version++
	r.mu.Unlock()
}

// BlockBoth blocks both directions between a and b.
func (r *Rules) BlockBoth(a, b proto.NodeID) {
	r.mu.Lock()
	r.blocked[pair{a, b}] = true
	r.blocked[pair{b, a}] = true
	r.version++
	r.mu.Unlock()
}

// HealBoth re-enables both directions between a and b.
func (r *Rules) HealBoth(a, b proto.NodeID) {
	r.mu.Lock()
	delete(r.blocked, pair{a, b})
	delete(r.blocked, pair{b, a})
	r.version++
	r.mu.Unlock()
}

// Partition assigns nodes to groups; nodes in different groups cannot
// communicate in either direction. Call with nil to clear. Nodes absent
// from the map are in group 0. The map is copied; the caller may reuse
// it. Partitions compose with directed blocks: a link is usable only if
// it is neither blocked nor cut by the partition.
func (r *Rules) Partition(group map[proto.NodeID]int) {
	var cp map[proto.NodeID]int
	if group != nil {
		cp = make(map[proto.NodeID]int, len(group))
		for id, g := range group {
			cp[id] = g
		}
	}
	r.mu.Lock()
	r.group = cp
	r.version++
	r.mu.Unlock()
}

// Blocked reports whether traffic from -> to is currently dropped,
// either by a directed block rule or by the group partition.
func (r *Rules) Blocked(from, to proto.NodeID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.blocked[pair{from, to}] {
		return true
	}
	if r.group != nil && r.group[from] != r.group[to] {
		return true
	}
	return false
}

// Version increments on every rule change. Pollers (the real-TCP link
// proxies) use it to notice heals cheaply without diffing rule sets.
func (r *Rules) Version() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version
}

// Clear removes every block rule and the partition.
func (r *Rules) Clear() {
	r.mu.Lock()
	r.blocked = make(map[pair]bool)
	r.group = nil
	r.version++
	r.mu.Unlock()
}
