package coordinator

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"rpcv/internal/proto"
	"rpcv/internal/sim"
)

// pollSeqs sends one Poll for session u/1 and returns the sequence
// numbers of the Results reply, in reply order.
func pollSeqs(t *testing.T, w *sim.World, p *peer, poll *proto.Poll) []proto.RPCSeq {
	t.Helper()
	p.inbox = nil
	p.env.Send("co", poll)
	w.RunFor(time.Second)
	res, ok := p.last().(*proto.Results)
	if !ok || len(p.inbox) != 1 {
		t.Fatalf("poll %+v answered by %d messages, last %T", poll, len(p.inbox), p.last())
	}
	var seqs []proto.RPCSeq
	for _, r := range res.Results {
		if r.Call.User != poll.User || r.Call.Session != poll.Session {
			t.Fatalf("poll for %s/%d returned %s", poll.User, poll.Session, r.Call)
		}
		seqs = append(seqs, r.Call.Seq)
	}
	return seqs
}

// TestPollAckEquivalentToLegacyHave is the watermark's contract: for
// any job table and the {Ack, Have} of an honest client — one whose Ack
// never goes back — the coordinator returns exactly the finished
// results outside {1..Ack} ∪ Have — the same reply as for the
// legacy-shaped Poll{Have: {1..Ack} ∪ Have}, whatever the order or
// repetition in Have. Tables have holes (seqs never submitted),
// unfinished jobs, results arriving in random order and twice, and a
// second session and user that must never leak into the reply. Polls do
// not stand alone, though: the Ack also collects, so a stale Poll with
// a lower Ack gets nothing from below the highest one, while Have — the
// legacy shape included — never collects anything.
func TestPollAckEquivalentToLegacyHave(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, co, p := rig(t, Config{MaxTasksPerAck: 1000})

		max := 1 + rng.Intn(60)
		var submitted []int
		for seq := 1; seq <= max; seq++ {
			if rng.Intn(5) == 0 {
				continue // a hole: lost on the wire, or never issued
			}
			submitted = append(submitted, seq)
		}
		rng.Shuffle(len(submitted), func(i, j int) { submitted[i], submitted[j] = submitted[j], submitted[i] })
		for _, seq := range submitted {
			p.env.Send("co", submit(seq))
			other := submit(seq)
			other.Call.Session = 2
			p.env.Send("co", other)
			other = submit(seq)
			other.Call.User = "v"
			p.env.Send("co", other)
		}
		w.RunFor(time.Second)
		p.env.Send("co", &proto.Heartbeat{From: "peer", Role: proto.RoleServer, Capacity: 1000, WantWork: true})
		w.RunFor(time.Second)
		tasks := p.last().(*proto.HeartbeatAck).Tasks
		rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
		finished := map[proto.RPCSeq]bool{}
		for _, task := range tasks {
			if rng.Intn(4) == 0 {
				continue // still running
			}
			for n := 1 + rng.Intn(2); n > 0; n-- { // sometimes delivered twice
				p.env.Send("co", &proto.TaskResult{From: "peer", Task: task.Task, Output: []byte("r")})
			}
			if task.Task.Call.User == "u" && task.Task.Call.Session == 1 {
				finished[task.Task.Call.Seq] = true
			}
		}
		w.RunFor(time.Second)

		var ack proto.RPCSeq
		for trial := 0; trial < 8; trial++ {
			// trial 0 is the client that has no result yet.
			var have []proto.RPCSeq
			if trial > 0 {
				ack += proto.RPCSeq(rng.Intn(max/4 + 2))
				for n := rng.Intn(12); n > 0; n-- {
					have = append(have, proto.RPCSeq(1+rng.Intn(max+3))) // unsorted, repeats, some ≤ ack
				}
			}
			var want []proto.RPCSeq
			for seq := proto.RPCSeq(1); int(seq) <= max; seq++ {
				if finished[seq] && seq > ack && !slices.Contains(have, seq) {
					want = append(want, seq)
				}
			}
			legacy := slices.Clone(have)
			for seq := proto.RPCSeq(1); seq <= ack; seq++ {
				legacy = append(legacy, seq)
			}
			rng.Shuffle(len(legacy), func(i, j int) { legacy[i], legacy[j] = legacy[j], legacy[i] })

			got := pollSeqs(t, w, p, &proto.Poll{User: "u", Session: 1, Ack: ack, Have: have})
			gotLegacy := pollSeqs(t, w, p, &proto.Poll{User: "u", Session: 1, Have: legacy})
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: Poll{Ack: %d, Have: %v} returned %v, want %v", seed, ack, have, got, want)
			}
			if !slices.Equal(gotLegacy, want) {
				t.Fatalf("seed %d: legacy Poll{Have: %v} returned %v, want %v", seed, legacy, gotLegacy, want)
			}
			if w := co.Collected("u", 1); w != ack {
				t.Fatalf("seed %d: watermark %d after Poll{Ack: %d}; only Ack moves it, and never back", seed, w, ack)
			}
		}
		// A stale Poll — delayed on the wire, or of an incarnation that
		// lost its watermark — is answered from above the watermark only.
		var want []proto.RPCSeq
		for seq := ack + 1; int(seq) <= max; seq++ {
			if finished[seq] {
				want = append(want, seq)
			}
		}
		if got := pollSeqs(t, w, p, &proto.Poll{User: "u", Session: 1}); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Poll{Ack: 0} after Ack %d returned %v, want %v", seed, ack, got, want)
		}
		for _, rec := range co.DB().PeekAll() {
			if rec.Call.User == "u" && rec.Call.Session == 1 && rec.Call.Seq <= ack && rec.State == proto.TaskFinished {
				t.Fatalf("seed %d: finished call %s still in the table below watermark %d", seed, rec.Call, ack)
			}
		}
	}
}

// TestPollChargesOneDBOp pins the simulator's clock model: a poll is
// one database statement however many records it walks.
func TestPollChargesOneDBOp(t *testing.T) {
	w, co, p := rig(t, Config{})
	for seq := 1; seq <= 20; seq++ {
		p.env.Send("co", submit(seq))
	}
	w.RunFor(time.Second)
	for _, poll := range []*proto.Poll{
		{User: "u", Session: 1},
		{User: "u", Session: 1, Ack: 7, Have: []proto.RPCSeq{9, 12}},
		{User: "nobody", Session: 3},
	} {
		before := co.DB().Ops()
		p.env.Send("co", poll)
		w.RunFor(time.Second)
		if got := co.DB().Ops() - before; got != 1 {
			t.Fatalf("poll %+v charged %d database operations, want 1", poll, got)
		}
	}
}
