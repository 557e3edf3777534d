// Package shard holds LoopMap, the consistent-hash placement of
// sessions onto in-process event loops. It is all that is left of the
// sharded coordination layer, which hashed sessions onto several
// coordinator rings; the grid now runs the paper's single ring, and a
// runtime hosts its handler on one event loop. Nothing but
// bench/probes.go's shard.loop_owner_ns probe uses the map, and ROADMAP
// item 1a deletes the probe and this package together.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"

	"rpcv/internal/proto"
)

// vnodes is the number of virtual points each loop places on the hash
// circle. More points smooth the key distribution at the cost of a
// larger (static) table.
const vnodes = 64

// LoopMap pins sessions to in-process event loops by consistent hashing:
// every loop contributes vnodes virtual points on the hash circle, and a
// session lands on the loop owning the first point at or after its
// (user, session) hash. The map depends only on the loop count.
//
// A LoopMap is immutable after construction and safe for concurrent
// use.
type LoopMap struct {
	loops  int
	points []loopPoint
}

type loopPoint struct {
	hash uint64
	loop int
}

// NewLoopMap builds the placement circle for n event loops. n < 1 is
// treated as 1.
func NewLoopMap(n int) *LoopMap {
	if n < 1 {
		n = 1
	}
	m := &LoopMap{loops: n}
	if n == 1 {
		return m
	}
	m.points = make([]loopPoint, 0, n*vnodes)
	for l := 0; l < n; l++ {
		for v := 0; v < vnodes; v++ {
			m.points = append(m.points, loopPoint{
				hash: mix64(hash64(fmt.Sprintf("loop/%d/%d", l, v))),
				loop: l,
			})
		}
	}
	sort.Slice(m.points, func(i, j int) bool { return m.points[i].hash < m.points[j].hash })
	return m
}

// Owner returns the loop index owning a session. A single-loop map
// owns everything at index 0.
func (m *LoopMap) Owner(user proto.UserID, session proto.SessionID) int {
	if m.loops <= 1 {
		return 0
	}
	h := mix64(hash64(fmt.Sprintf("%s/%d", user, session)))
	i := sort.Search(len(m.points), func(i int) bool { return m.points[i].hash >= h })
	if i == len(m.points) {
		i = 0
	}
	return m.points[i].loop
}

// mix64 is the splitmix64 avalanche finalizer. FNV-1a alone is too
// weak for this circle: the keys hashed here ("loop/l/v", "user/sess")
// differ only in trailing digits, and FNV maps such near-identical
// strings to near-identical values — all of one user's sessions fall
// into a single gap, and one loop's virtual points huddle together
// instead of interleaving. Avalanching the FNV output restores the
// uniformity consistent hashing assumes while staying a pure,
// process-independent function of the key.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
