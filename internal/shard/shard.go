// Package shard implements the sharded coordination layer: a
// consistent-hash map that partitions RPC-V's client sessions across
// multiple independent coordinator rings.
//
// The paper replicates a single coordinator set on one virtual ring, so
// every submission, poll and heartbeat funnels through that one group —
// figure 5 shows replication time bounded by per-task database cost,
// which makes the group the scalability ceiling. The shard map removes
// the ceiling without touching the per-ring protocol: each ring still
// runs the paper's passive replication, message logging and heartbeat
// fault detection internally, and the map only decides *which* ring a
// session belongs to.
//
// Routing is by (user, session): a whole session lands on one ring, so
// the per-session timestamp synchronization protocol (§4.2) is entirely
// intra-ring. Keys hash onto a 64-bit circle populated with virtual
// nodes (many per ring, for smoothness); the owner of a key is the ring
// of the first virtual node at or after the key's point. Ring
// membership changes move only the sessions between adjacent points —
// the classic consistent-hashing property.
//
// The map also defines a successor relation *between shards* (the ring
// owning the circle point just past a shard's first virtual node).
// Coordinators cross-replicate their dirty records to the successor
// shard and adopt a guarded shard's sessions when its whole ring is
// lost, so whole-ring failure degrades to the paper's ordinary
// failover, one level up.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"

	"rpcv/internal/proto"
	"rpcv/internal/statesync"
)

// DefaultVNodes is the number of virtual nodes placed on the circle per
// shard when a state does not specify one. More virtual nodes smooth
// the key distribution at the cost of a larger (static) table.
const DefaultVNodes = 64

// Map is an immutable shard topology: a versioned assignment of
// sessions to coordinator rings. Build one with New or FromState and
// share it freely — all methods are read-only.
type Map struct {
	version uint64
	vnodes  int
	rings   [][]proto.NodeID
	points  []point // sorted hash circle
	ringOf  map[proto.NodeID]int
}

// point is one virtual node on the circle.
type point struct {
	hash uint64
	ring int
}

// New builds a map from ring member lists. Each ring's member list is
// deduplicated and sorted (the same common order its coordinators use
// to compute intra-ring successors). vnodes <= 0 means DefaultVNodes.
// Version tags the topology so stale cached maps are detectable.
func New(version uint64, rings [][]proto.NodeID, vnodes int) *Map {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	m := &Map{
		version: version,
		vnodes:  vnodes,
		rings:   make([][]proto.NodeID, len(rings)),
		ringOf:  make(map[proto.NodeID]int),
	}
	for i, members := range rings {
		m.rings[i] = statesync.MergeNodeLists(members)
		for _, id := range m.rings[i] {
			if _, dup := m.ringOf[id]; !dup {
				m.ringOf[id] = i
			}
		}
	}
	if len(m.rings) > 1 {
		m.points = make([]point, 0, len(m.rings)*vnodes)
		for i := range m.rings {
			for v := 0; v < vnodes; v++ {
				m.points = append(m.points, point{
					hash: hash64(fmt.Sprintf("shard-%d/vnode-%d", i, v)),
					ring: i,
				})
			}
		}
		sort.Slice(m.points, func(a, b int) bool {
			if m.points[a].hash != m.points[b].hash {
				return m.points[a].hash < m.points[b].hash
			}
			return m.points[a].ring < m.points[b].ring
		})
	}
	return m
}

// FromState rebuilds a map from its wire representation.
func FromState(st proto.ShardMapState) *Map {
	return New(st.Version, st.Rings, st.VNodes)
}

// State returns the wire representation a ShardRedirect carries.
func (m *Map) State() proto.ShardMapState {
	st := proto.ShardMapState{
		Version: m.version,
		VNodes:  m.vnodes,
		Rings:   make([][]proto.NodeID, len(m.rings)),
	}
	for i, r := range m.rings {
		st.Rings[i] = append([]proto.NodeID(nil), r...)
	}
	return st
}

// Version returns the topology version.
func (m *Map) Version() uint64 { return m.version }

// Shards returns the number of coordinator rings.
func (m *Map) Shards() int { return len(m.rings) }

// Ring returns shard i's coordinator members (shared slice: callers
// must not mutate).
func (m *Map) Ring(i int) []proto.NodeID {
	if i < 0 || i >= len(m.rings) {
		return nil
	}
	return m.rings[i]
}

// RingOf returns the shard index a coordinator belongs to, or -1 when
// the coordinator is not in the map.
func (m *Map) RingOf(id proto.NodeID) int {
	if r, ok := m.ringOf[id]; ok {
		return r
	}
	return -1
}

// Owner returns the shard index owning a session. A single-ring map
// owns everything at index 0.
func (m *Map) Owner(user proto.UserID, session proto.SessionID) int {
	if len(m.rings) <= 1 {
		return 0
	}
	return m.owner(hash64(fmt.Sprintf("%s/%d", user, session)))
}

// owner finds the ring of the first virtual node at or after h,
// wrapping around the circle.
func (m *Map) owner(h uint64) int {
	i := sort.Search(len(m.points), func(i int) bool { return m.points[i].hash >= h })
	if i == len(m.points) {
		i = 0
	}
	return m.points[i].ring
}

// SuccessorShard returns the shard that inherits shard i's sessions on
// whole-ring loss: the ring owning the circle point immediately after
// shard i's first virtual node (skipping shard i's own points). For a
// single- or two-ring map this degenerates to the other ring (or i
// itself when alone).
func (m *Map) SuccessorShard(i int) int {
	n := len(m.rings)
	if n <= 1 {
		return 0
	}
	if i < 0 || i >= n {
		return -1
	}
	// Locate shard i's first (lowest-hash) point on the circle.
	first := -1
	for p, pt := range m.points {
		if pt.ring == i {
			first = p
			break
		}
	}
	if first < 0 {
		return (i + 1) % n
	}
	for step := 1; step < len(m.points); step++ {
		pt := m.points[(first+step)%len(m.points)]
		if pt.ring != i {
			return pt.ring
		}
	}
	return (i + 1) % n
}

// RouteOrder returns every coordinator in failover order for a session:
// the owner ring first, then the successor-shard chain, then any rings
// the chain did not reach (short cycles are possible on the circle),
// in index order. Clients walk this order when suspecting coordinators,
// so the ring they land on after a whole-ring loss is exactly the ring
// that adopted the lost shard's state.
func (m *Map) RouteOrder(user proto.UserID, session proto.SessionID) []proto.NodeID {
	out := make([]proto.NodeID, 0, len(m.ringOf))
	visited := make([]bool, len(m.rings))
	appendRing := func(r int) {
		if r < 0 || r >= len(m.rings) || visited[r] {
			return
		}
		visited[r] = true
		out = append(out, m.rings[r]...)
	}
	s := m.Owner(user, session)
	for i := 0; i < len(m.rings); i++ {
		if visited[s] {
			break
		}
		appendRing(s)
		s = m.SuccessorShard(s)
	}
	for r := range m.rings {
		appendRing(r)
	}
	return out
}

// hash64 is FNV-1a: deterministic across processes and runs, which is
// what lets every component compute the same owner without agreement.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
