package statesync

import (
	"slices"
	"testing"
	"testing/quick"

	"rpcv/internal/proto"
)

func seqs(vals ...int) []proto.RPCSeq {
	out := make([]proto.RPCSeq, len(vals))
	for i, v := range vals {
		out[i] = proto.RPCSeq(v)
	}
	return out
}

func TestMissingSeqs(t *testing.T) {
	cases := []struct {
		floor, max proto.RPCSeq
		known      []proto.RPCSeq
		want       []proto.RPCSeq
	}{
		{0, 0, nil, nil},
		{0, 3, nil, seqs(1, 2, 3)},
		{0, 3, seqs(1, 2, 3), nil},
		{0, 5, seqs(2, 4), seqs(1, 3, 5)},
		{0, 2, seqs(1, 2, 7), nil},        // known beyond max is ignored
		{0, 4, seqs(4, 4, 1), seqs(2, 3)}, // duplicates tolerated
		{3, 6, seqs(5), seqs(4, 6)},       // nothing at or below the floor
		{3, 6, seqs(2, 5), seqs(4, 6)},    // known below the floor is ignored
		{6, 6, nil, nil},
	}
	for i, c := range cases {
		got := MissingSeqs(c.floor, c.max, c.known)
		if len(got) != len(c.want) {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
			continue
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Errorf("case %d: got %v want %v", i, got, c.want)
				break
			}
		}
	}
}

func TestMissingSeqsQuick(t *testing.T) {
	// Property: known ∪ missing ⊇ [1,max], and missing ∩ known = ∅.
	f := func(max uint8, knownRaw []uint8) bool {
		m := proto.RPCSeq(max % 64)
		known := make([]proto.RPCSeq, len(knownRaw))
		inKnown := make(map[proto.RPCSeq]bool)
		for i, k := range knownRaw {
			known[i] = proto.RPCSeq(k % 64)
			inKnown[known[i]] = true
		}
		missing := MissingSeqs(0, m, known)
		seen := make(map[proto.RPCSeq]bool)
		for _, s := range missing {
			if s < 1 || s > m || inKnown[s] || seen[s] {
				return false
			}
			seen[s] = true
		}
		for s := proto.RPCSeq(1); s <= m; s++ {
			if !inKnown[s] && !seen[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func call(u string, s, q int) proto.CallID {
	return proto.CallID{User: proto.UserID(u), Session: proto.SessionID(s), Seq: proto.RPCSeq(q)}
}

func task(u string, s, q, inst int) proto.TaskID {
	return proto.TaskID{Call: call(u, s, q), Instance: uint32(inst)}
}

func TestTaskDiff(t *testing.T) {
	offered := []proto.TaskID{
		task("a", 1, 1, 1),
		task("a", 1, 2, 1),
		task("a", 1, 2, 2), // second instance of same call
		task("b", 1, 1, 1),
	}
	finished := map[proto.CallID]bool{call("b", 1, 1): true}
	resend, drop := TaskDiff(offered, func(c proto.CallID) bool { return !finished[c] })

	if len(resend) != 2 {
		t.Fatalf("resend = %v, want 2 entries", resend)
	}
	wantResend := map[proto.TaskID]bool{task("a", 1, 1, 1): true, task("a", 1, 2, 1): true}
	for _, r := range resend {
		if !wantResend[r] {
			t.Errorf("unexpected resend %v", r)
		}
	}
	// One duplicate instance and one already-finished call dropped.
	if len(drop) != 2 {
		t.Fatalf("drop = %v, want 2 entries", drop)
	}
}

func TestTaskDiffPartition(t *testing.T) {
	// Property: resend ∪ drop == offered (as multisets), disjoint.
	f := func(raw []uint8) bool {
		offered := make([]proto.TaskID, len(raw))
		for i, r := range raw {
			offered[i] = task("u", 1, int(r%8)+1, int(r/8)%4)
		}
		resend, drop := TaskDiff(offered, func(c proto.CallID) bool { return c.Seq%2 == 1 })
		if len(resend)+len(drop) != len(offered) {
			return false
		}
		// No call resent twice.
		seen := make(map[proto.CallID]bool)
		for _, r := range resend {
			if seen[r.Call] {
				return false
			}
			seen[r.Call] = true
			if r.Call.Seq%2 != 1 {
				return false // resent something the coordinator has
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMergeNodeLists(t *testing.T) {
	got := MergeNodeLists(
		[]proto.NodeID{"c", "a"},
		[]proto.NodeID{"b", "a"},
		nil,
	)
	want := []proto.NodeID{"a", "b", "c"}
	if len(got) != 3 {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge = %v, want %v", got, want)
		}
	}
}

// TestMergeNodeListsAddingNothing: a server merges the list on every ack
// it gets, and the ack's list is nearly always one it holds already.
// Then the merge is the server's own list, with no allocation; anything
// new, or a first list that is not in merged form, takes the full merge.
func TestMergeNodeListsAddingNothing(t *testing.T) {
	mine := []proto.NodeID{"co0", "co1", "co2"}
	for _, theirs := range [][]proto.NodeID{nil, {"co1"}, {"co2", "co0", "co2"}, mine} {
		if got := MergeNodeLists(mine, theirs); &got[0] != &mine[0] || len(got) != len(mine) {
			t.Fatalf("merge of %v into %v = %v, not the list itself", theirs, mine, got)
		}
		if n := testing.AllocsPerRun(100, func() { MergeNodeLists(mine, theirs) }); n != 0 {
			t.Fatalf("merge of %v into %v: %v allocations, want 0", theirs, mine, n)
		}
	}
	for _, c := range []struct{ mine, theirs, want []proto.NodeID }{
		{mine, []proto.NodeID{"co3"}, []proto.NodeID{"co0", "co1", "co2", "co3"}},
		{[]proto.NodeID{"co1", "co0"}, []proto.NodeID{"co0"}, []proto.NodeID{"co0", "co1"}},
		{[]proto.NodeID{"co0", "co0"}, nil, []proto.NodeID{"co0"}},
	} {
		got := MergeNodeLists(c.mine, c.theirs)
		if !slices.Equal(got, c.want) || &got[0] == &c.mine[0] {
			t.Fatalf("merge of %v into %v = %v, want a fresh %v", c.theirs, c.mine, got, c.want)
		}
	}
}

func TestSuccessorRing(t *testing.T) {
	members := []proto.NodeID{"a", "b", "c"}
	none := func(proto.NodeID) bool { return false }

	if s := Successor("a", members, none); s != "b" {
		t.Errorf("succ(a) = %s, want b", s)
	}
	if s := Successor("c", members, none); s != "a" {
		t.Errorf("succ(c) = %s, want a (wrap)", s)
	}
	// Skipping a suspected node.
	susp := func(id proto.NodeID) bool { return id == "b" }
	if s := Successor("a", members, susp); s != "c" {
		t.Errorf("succ(a) skipping b = %s, want c", s)
	}
	// Alone, or everyone else suspected: no successor.
	if s := Successor("a", []proto.NodeID{"a"}, none); s != "" {
		t.Errorf("succ alone = %s, want empty", s)
	}
	all := func(id proto.NodeID) bool { return id != "a" }
	if s := Successor("a", members, all); s != "" {
		t.Errorf("succ with all suspected = %s, want empty", s)
	}
}

func TestSuccessorSelfNotInList(t *testing.T) {
	// A coordinator not (yet) in the shared list still finds a stable
	// position.
	if s := Successor("b", []proto.NodeID{"a", "c"}, nil); s != "c" {
		t.Errorf("succ(b) in [a c] = %s, want c", s)
	}
}

func TestSuccessorRingIsPermutation(t *testing.T) {
	// Property: following successors from any member visits every other
	// member exactly once before returning (the ring is a single cycle).
	members := []proto.NodeID{"n1", "n2", "n3", "n4", "n5"}
	for _, start := range members {
		visited := map[proto.NodeID]bool{start: true}
		cur := start
		for i := 0; i < len(members)-1; i++ {
			cur = Successor(cur, members, nil)
			if cur == "" || visited[cur] {
				t.Fatalf("ring broken at %s after %s", cur, start)
			}
			visited[cur] = true
		}
		if next := Successor(cur, members, nil); next != start {
			t.Fatalf("ring from %s does not close: ends at %s", start, next)
		}
	}
}

// --- Edge cases of the client/coordinator comparison ---

func TestMissingSeqsEmptyLogs(t *testing.T) {
	// A pristine component on either side: nothing known, nothing to
	// resend.
	if got := MissingSeqs(0, 0, nil); got != nil {
		t.Errorf("MissingSeqs(0, nil) = %v, want nil", got)
	}
	// The coordinator knows nothing: the whole contiguous prefix must
	// be resent.
	if got := MissingSeqs(0, 3, nil); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("MissingSeqs(3, nil) = %v, want [1 2 3]", got)
	}
}

func TestMissingSeqsClientMaxBelowAllKnown(t *testing.T) {
	// The coordinator knows only seqs above the client's max (e.g. the
	// client rolled back to an old log): everything in [1, max] is
	// missing, and the higher known seqs must not leak into the answer.
	got := MissingSeqs(0, 2, []proto.RPCSeq{5, 6, 7})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("MissingSeqs(2, [5 6 7]) = %v, want [1 2]", got)
	}
}
