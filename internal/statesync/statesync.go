// Package statesync implements the pure algorithms of RPC-V's state
// synchronization (paper §4.2, "Synchronization"): on every
// reconnection, components determine received and lost messages from
// their local logs, and lost ones are resent.
//
// The implementation depends on each component's local information:
//
//   - Client↔coordinator: client RPC submissions carry a per-session
//     counter; synchronization compares the client's maximum timestamp
//     with the coordinator's. The client's log is contiguous (1..max),
//     the coordinator's may have gaps (messages lost in transit or in a
//     crash), so the coordinator-side diff is a set difference.
//   - Coordinator↔coordinator: exchange of maximum timestamps for all
//     known clients.
//   - Server↔coordinator: servers hold non-contiguous timestamps for a
//     given client, so the synchronization is a peer-wise comparison of
//     logs (exact task-ID sets).
//
// The timing of synchronization (figure 6) comes from the message and
// disk models; this package only computes what must move.
package statesync

import (
	"slices"
	"sort"

	"rpcv/internal/proto"
)

// MissingSeqs returns the sequence numbers in (floor, clientMax] absent
// from known, in increasing order: what the client must resend. floor is
// the client's result watermark — the calls at or below it had their
// results delivered and are no longer anyone's to resend — so the cost
// follows the calls in flight, not the session's age.
func MissingSeqs(floor, clientMax proto.RPCSeq, known []proto.RPCSeq) []proto.RPCSeq {
	have := make(map[proto.RPCSeq]bool, len(known))
	for _, s := range known {
		if s > floor && s <= clientMax {
			have[s] = true
		}
	}
	var missing []proto.RPCSeq
	for s := floor + 1; s <= clientMax; s++ {
		if !have[s] {
			missing = append(missing, s)
		}
	}
	return missing
}

// TaskDiff computes the server↔coordinator peer-wise log comparison.
// offered is the set of task results the server still holds; wanted
// reports, for each offered task, whether the coordinator lacks a
// result for its call. It appends to resend what the server must
// upload again, and to drop what it may garbage-collect (the
// coordinator already has a finished result for the call, possibly from
// another instance or another server).
func TaskDiff(resend, drop, offered []proto.TaskID, wanted func(proto.CallID) bool) ([]proto.TaskID, []proto.TaskID) {
	seen := make(map[proto.CallID]bool, len(offered))
	sorted := append([]proto.TaskID(nil), offered...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Call != sorted[j].Call {
			return sorted[i].Call.Less(sorted[j].Call)
		}
		return sorted[i].Instance < sorted[j].Instance
	})
	for _, t := range sorted {
		switch {
		case seen[t.Call]:
			// A second instance of the same call: one upload suffices.
			drop = append(drop, t)
		case wanted(t.Call):
			resend = append(resend, t)
			seen[t.Call] = true
		default:
			drop = append(drop, t)
		}
	}
	return resend, drop
}

// MergeNodeLists merges coordinator lists, removing duplicates and
// preserving a deterministic (sorted) order. The common order over the
// merged list is what every coordinator uses to compute its ring
// position and successor, so determinism here is what keeps the virtual
// ring consistent without any agreement protocol.
//
// A merge into a list that is already the merged form — sorted,
// without duplicates, holding every ID of the other lists, as a node's
// own list is once a peer's adds nothing — returns that first list
// itself and allocates nothing. Callers treat results as read-only.
func MergeNodeLists(lists ...[]proto.NodeID) []proto.NodeID {
	if len(lists) > 1 && coversAll(lists[0], lists[1:]) {
		return lists[0]
	}
	set := make(map[proto.NodeID]bool)
	for _, l := range lists {
		for _, id := range l {
			set[id] = true
		}
	}
	out := make([]proto.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// coversAll reports whether base is strictly increasing and holds every
// ID of others.
func coversAll(base []proto.NodeID, others [][]proto.NodeID) bool {
	for i := 1; i < len(base); i++ {
		if base[i-1] >= base[i] {
			return false
		}
	}
	for _, l := range others {
		for _, id := range l {
			if _, found := slices.BinarySearch(base, id); !found {
				return false
			}
		}
	}
	return true
}

// Successor computes self's successor on the virtual ring defined by
// the common sorted order of members, skipping suspected nodes. It
// returns "" when no eligible successor exists (self alone, or all
// others suspected). Self is never its own successor.
func Successor(self proto.NodeID, members []proto.NodeID, suspected func(proto.NodeID) bool) proto.NodeID {
	ring := MergeNodeLists(members) // sorted, deduplicated common order
	idx := -1
	for i, id := range ring {
		if id == self {
			idx = i
			break
		}
	}
	if idx < 0 {
		// Self not in the list: treat the list as the ring and pick the
		// first non-suspected member after self's sort position.
		ring = MergeNodeLists(append(ring, self))
		for i, id := range ring {
			if id == self {
				idx = i
				break
			}
		}
	}
	n := len(ring)
	for step := 1; step < n; step++ {
		cand := ring[(idx+step)%n]
		if cand == self {
			continue
		}
		if suspected == nil || !suspected(cand) {
			return cand
		}
	}
	return ""
}
