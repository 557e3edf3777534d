package coordinator

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/db"
	"rpcv/internal/msglog"
	"rpcv/internal/node"
	"rpcv/internal/proto"
	"rpcv/internal/server"
	"rpcv/internal/sim"
)

// Late replies: standing work offers and result subscriptions. Every
// test but the last runs with Config.PullOnly unset.

// acks returns the HeartbeatAcks a scripted server received and clears
// its inbox.
func acks(p *peer) []*proto.HeartbeatAck {
	var out []*proto.HeartbeatAck
	for _, m := range p.inbox {
		if ack, ok := m.(*proto.HeartbeatAck); ok {
			out = append(out, ack)
		}
	}
	p.inbox = nil
	return out
}

// assigned returns the seqs assigned to a scripted server, in order of
// arrival, and clears its inbox.
func assigned(p *peer) []proto.RPCSeq {
	var out []proto.RPCSeq
	for _, ack := range acks(p) {
		for _, task := range ack.Tasks {
			out = append(out, task.Task.Call.Seq)
		}
	}
	return out
}

// results returns the seqs of the results a scripted client received,
// in order of arrival, and clears its inbox.
func results(p *peer) []proto.RPCSeq {
	var out []proto.RPCSeq
	for _, m := range p.inbox {
		if res, ok := m.(*proto.Results); ok {
			for _, r := range res.Results {
				out = append(out, r.Call.Seq)
			}
		}
	}
	p.inbox = nil
	return out
}

func seqs(s ...proto.RPCSeq) string { return fmt.Sprint(s) }

func idleSlots(co *Coordinator) int { return co.StatsNow().IdleSlots }

func subscriptions(co *Coordinator) int { return co.StatsNow().Subscriptions }

func TestOfferIsWhatThePullLeftIdle(t *testing.T) {
	w, co, a, _ := rig2(t, Config{})
	a.env.Send("co", submit(1))
	w.RunFor(time.Second)
	beat(a, 4)
	w.RunFor(time.Second)
	if got := assigned(a); seqs(got...) != seqs(1) {
		t.Fatalf("pull assigned %v, want [1]", got)
	}
	if n := idleSlots(co); n != 3 {
		t.Fatalf("offer after a pull of capacity 4 that took 1 task = %d slots, want 3", n)
	}
	// The next pull replaces the offer, whatever it was.
	beat(a, 2)
	w.RunFor(time.Second)
	if n := idleSlots(co); n != 2 {
		t.Fatalf("offer after a second pull of capacity 2 = %d slots, want 2", n)
	}
	// A busy server's beat (no capacity, no work wanted) withdraws it.
	a.env.Send("co", &proto.Heartbeat{From: "sva", Role: proto.RoleServer})
	w.RunFor(time.Second)
	if n := idleSlots(co); n != 0 {
		t.Fatalf("offer after a beat without capacity = %d slots, want none", n)
	}
}

func TestQueuedJobIsPushedToAStandingOffer(t *testing.T) {
	w, co, a, _ := rig2(t, Config{})
	beat(a, 3)
	w.RunFor(time.Second)
	acks(a) // the empty answer to the pull
	for i := 1; i <= 2; i++ {
		a.env.Send("co", submit(i))
		w.RunFor(10 * time.Millisecond)
		if got := assigned(a); seqs(got...) != seqs(proto.RPCSeq(i)) {
			t.Fatalf("submit %d: pushed %v, want it alone", i, got)
		}
		if n := idleSlots(co); n != 3-i {
			t.Fatalf("offer after %d pushed tasks = %d slots, want %d", i, n, 3-i)
		}
	}
	st := co.StatsNow()
	if st.PushedTasks != 2 || st.Ongoing != 2 || st.Pending != 0 {
		t.Fatalf("after two pushes: %+v", st)
	}
	// The offer is spent slot by slot: the third push empties it and the
	// fourth job waits for a pull.
	a.env.Send("co", submit(3))
	a.env.Send("co", submit(4))
	w.RunFor(10 * time.Millisecond)
	if got := assigned(a); seqs(got...) != seqs(3) {
		t.Fatalf("pushed %v to an offer with one slot left, want [3]", got)
	}
	if st := co.StatsNow(); st.Pending != 1 || st.IdleSlots != 0 {
		t.Fatalf("spent offer: %+v", st)
	}
}

func TestPushIsCappedLikeAPull(t *testing.T) {
	w, co, a, _ := rig2(t, Config{MaxTasksPerAck: 2})
	beat(a, 10)
	w.RunFor(time.Second)
	acks(a)
	// Five jobs land in one handler run (a requeue burst would do the
	// same): one late reply carries MaxTasksPerAck of them.
	w.Schedule(0, func() {
		for i := 1; i <= 5; i++ {
			co.handleSubmit("svb", submit(i))
		}
		co.dispatch()
	})
	w.RunFor(10 * time.Millisecond)
	got := acks(a)
	if len(got) != 1 || len(got[0].Tasks) != 2 {
		t.Fatalf("one dispatch sent %d acks (first with %d tasks), want 1 ack of 2", len(got), len(got[0].Tasks))
	}
	if st := co.StatsNow(); st.Pending != 3 || st.IdleSlots != 8 {
		t.Fatalf("after a capped push: %+v", st)
	}
}

func TestIdleServersAreServedInTurn(t *testing.T) {
	w, _, a, b := rig2(t, Config{})
	beat(a, 4)
	w.RunFor(time.Millisecond)
	beat(b, 4)
	w.RunFor(time.Second)
	for i := 1; i <= 6; i++ {
		a.env.Send("co", submit(i))
		w.RunFor(10 * time.Millisecond)
	}
	// sva pulled first, so it has been idle longest and goes first; each
	// push sends its server to the back of the line.
	if ga, gb := assigned(a), assigned(b); seqs(ga...) != seqs(1, 3, 5) || seqs(gb...) != seqs(2, 4, 6) {
		t.Fatalf("sva got %v and svb %v, want them served alternately", ga, gb)
	}
	// A server that pulls again goes to the back too.
	beat(a, 4)
	w.RunFor(10 * time.Millisecond)
	acks(a)
	a.env.Send("co", submit(7))
	w.RunFor(10 * time.Millisecond)
	if ga, gb := assigned(a), assigned(b); len(ga) != 0 || seqs(gb...) != seqs(7) {
		t.Fatalf("after sva's fresh pull, sva got %v and svb %v; svb has been idle longer", ga, gb)
	}
}

func TestStaleOfferIsNotSpent(t *testing.T) {
	w, co, a, _ := rig2(t, Config{HeartbeatTimeout: 10 * time.Second})
	beat(a, 2)
	w.RunFor(9 * time.Second)
	a.env.Send("co", submit(1))
	w.RunFor(10 * time.Millisecond)
	if got := assigned(a); seqs(got...) != seqs(1) {
		t.Fatalf("a 9 s old offer under a 10 s timeout was not spent: %v", got)
	}
	// Now let the rest of the offer outlive the timeout. The detector's
	// sweep suspects the silent server and takes its offer with it.
	w.RunFor(20 * time.Second)
	if n := idleSlots(co); n != 0 {
		t.Fatalf("suspected server still offers %d slots", n)
	}
	a.env.Send("co", submit(2))
	w.RunFor(10 * time.Millisecond)
	if got := assigned(a); len(got) != 0 {
		t.Fatalf("pushed %v to a suspect", got)
	}
}

func TestOfferOlderThanTheTimeoutIsIgnored(t *testing.T) {
	// The age check on its own, as after a stalled loop: the offer is as
	// old as silence gets, but the sweep that will suspect its server
	// (one every timeout/6, at 10 s and 11.67 s here) has not run yet.
	w, co, a, _ := rig2(t, Config{HeartbeatTimeout: 10 * time.Second})
	w.RunFor(time.Second)
	beat(a, 2)
	w.RunFor(10*time.Second + 200*time.Millisecond)
	acks(a)
	if n, sus := idleSlots(co), co.SuspectedServers(); n != 2 || len(sus) != 0 {
		t.Fatalf("premise: %d idle slots, suspects %v; want the offer standing and nobody suspected", n, sus)
	}
	a.env.Send("co", submit(1))
	w.RunFor(10 * time.Millisecond)
	if got := assigned(a); len(got) != 0 {
		t.Fatalf("pushed %v to an offer as old as the timeout", got)
	}
	if st := co.StatsNow(); st.IdleSlots != 0 || st.Pending != 1 {
		t.Fatalf("stale offer not dropped: %+v", st)
	}
}

func TestSyncThatRunsNothingIsAnOffer(t *testing.T) {
	w, co, a, _ := rig2(t, Config{})
	// A fresh server's first beat is a sync, its first pull a period
	// later: what is queued meanwhile does not wait for that pull.
	a.env.Send("co", &proto.ServerSync{From: "sva"})
	w.RunFor(time.Second)
	if n := idleSlots(co); n != 1 {
		t.Fatalf("a sync running nothing left %d idle slots, want 1", n)
	}
	a.env.Send("co", submit(1))
	w.RunFor(10 * time.Millisecond)
	if got := assigned(a); seqs(got...) != seqs(1) {
		t.Fatalf("pushed %v to the synchronizing server, want [1]", got)
	}
	// A server that says it is running something offers nothing, and a
	// sync never shrinks what a pull offered.
	a.env.Send("co", &proto.ServerSync{From: "sva", Running: []proto.TaskID{{Call: call(1), Instance: 1}}})
	w.RunFor(time.Second)
	if n := idleSlots(co); n != 0 {
		t.Fatalf("a busy server's sync left %d idle slots, want none", n)
	}
	beat(a, 3)
	w.RunFor(time.Second)
	a.env.Send("co", &proto.ServerSync{From: "sva"})
	w.RunFor(time.Second)
	if n := idleSlots(co); n != 3 {
		t.Fatalf("a sync after a pull of 3 left %d idle slots, want the pull's 3", n)
	}

	// The offer ages like any other (TestOfferOlderThanTheTimeoutIsIgnored
	// has the timing): as old as the timeout, it is dropped, not spent.
	w, co, a, _ = rig2(t, Config{HeartbeatTimeout: 10 * time.Second})
	w.RunFor(time.Second)
	a.env.Send("co", &proto.ServerSync{From: "sva"})
	w.RunFor(10*time.Second + 200*time.Millisecond)
	acks(a)
	if n, sus := idleSlots(co), co.SuspectedServers(); n != 1 || len(sus) != 0 {
		t.Fatalf("premise: %d idle slots, suspects %v; want the offer standing and nobody suspected", n, sus)
	}
	a.env.Send("co", submit(1))
	w.RunFor(10 * time.Millisecond)
	if got := assigned(a); len(got) != 0 {
		t.Fatalf("pushed %v to a sync's offer as old as the timeout", got)
	}
	if st := co.StatsNow(); st.IdleSlots != 0 || st.Pending != 1 {
		t.Fatalf("stale offer not dropped: %+v", st)
	}

	// PullOnly: a sync stays a sync.
	w, co, a, _ = rig2(t, Config{PullOnly: true})
	a.env.Send("co", &proto.ServerSync{From: "sva"})
	w.RunFor(time.Second)
	if n := idleSlots(co); n != 0 {
		t.Fatalf("pull-only coordinator holds %d idle slots after a sync", n)
	}
}

// TestPullBehindAResultGoesUnanswered (quietPull): the pull a server
// sends right behind its result, with nothing to assign, gets no empty
// HeartbeatAck — the TaskResultAck says all it would — and its offer
// stands. The pull after it is answered, and so is a pull behind a
// result that is assigned work, and every pull under PullOnly.
func TestPullBehindAResultGoesUnanswered(t *testing.T) {
	for _, pullOnly := range []bool{false, true} {
		w, co, a, _ := rig2(t, Config{PullOnly: pullOnly})
		// finish sends sva's result for task and pulls behind it, as
		// server.finishTask does; it returns what sva received.
		finish := func(task proto.TaskID) (resultAcks int, hbAcks []*proto.HeartbeatAck) {
			a.env.Send("co", &proto.TaskResult{From: "sva", Task: task, Output: []byte("r")})
			beat(a, 1)
			w.RunFor(time.Second)
			for _, m := range a.inbox {
				if _, ok := m.(*proto.TaskResultAck); ok {
					resultAcks++
				}
			}
			return resultAcks, acks(a)
		}

		a.env.Send("co", submit(1))
		a.env.Send("co", submit(2))
		w.RunFor(time.Second)
		beat(a, 1)
		w.RunFor(time.Second)
		first := lastAck(t, a).Tasks[0].Task
		acks(a)
		// Behind the result for 1, the pull is assigned 2: answered.
		n, got := finish(first)
		if n != 1 || len(got) != 1 || len(got[0].Tasks) != 1 {
			t.Fatalf("PullOnly %v: %d TaskResultAcks and %d HeartbeatAcks behind a result with work queued, want one of each", pullOnly, n, len(got))
		}
		// Behind the result for 2 nothing is queued: the pull goes
		// unanswered and stands as an offer, unless pull-only.
		wantAcks, wantSlots := 0, 1
		if pullOnly {
			wantAcks, wantSlots = 1, 0
		}
		if n, got := finish(got[0].Tasks[0].Task); n != 1 || len(got) != wantAcks {
			t.Fatalf("PullOnly %v: %d TaskResultAcks and %d HeartbeatAcks behind a result with nothing queued, want 1 and %d", pullOnly, n, len(got), wantAcks)
		}
		if idleSlots(co) != wantSlots {
			t.Fatalf("PullOnly %v: %d idle slots after the pull, want %d", pullOnly, idleSlots(co), wantSlots)
		}
		// The next pull is answered: an idle server keeps hearing from us.
		for i := 0; i < 2; i++ {
			beat(a, 1)
			w.RunFor(time.Second)
			if got := acks(a); len(got) != 1 {
				t.Fatalf("PullOnly %v: periodic pull %d answered with %d acks, want 1", pullOnly, i+1, len(got))
			}
		}
	}
}

func TestOffersAndSubscriptionsDieWithTheIncarnation(t *testing.T) {
	w, co, a, b := rig2(t, Config{})
	beat(a, 2)
	b.env.Send("co", &proto.Poll{User: "u", Session: 1})
	w.RunFor(time.Second)
	if idleSlots(co) != 2 || subscriptions(co) != 1 {
		t.Fatalf("before restart: %d idle slots, %d subscriptions", idleSlots(co), subscriptions(co))
	}
	w.Restart("co")
	w.RunFor(time.Millisecond)
	if idleSlots(co) != 0 || subscriptions(co) != 0 {
		t.Fatalf("after restart: %d idle slots, %d subscriptions; soft state must not survive",
			idleSlots(co), subscriptions(co))
	}
	acks(a)
	a.env.Send("co", submit(1))
	w.RunFor(10 * time.Millisecond)
	if got := assigned(a); len(got) != 0 {
		t.Fatalf("pushed %v to an offer made to the previous incarnation", got)
	}
}

func TestRequeueAfterSuspicionIsPushedElsewhere(t *testing.T) {
	w, co, a, b := rig2(t, Config{HeartbeatTimeout: 10 * time.Second})
	beat(a, 1)
	w.RunFor(time.Second)
	a.env.Send("co", submit(1))
	w.RunFor(10 * time.Millisecond)
	if got := assigned(a); seqs(got...) != seqs(1) {
		t.Fatalf("pushed %v to sva, want [1]", got)
	}
	// sva goes silent with the task; svb keeps beating and is idle when
	// the detector gives up on sva.
	for i := 0; i < 12; i++ {
		w.RunFor(time.Second)
		beat(b, 1)
	}
	w.RunFor(time.Second)
	if got := assigned(b); seqs(got...) != seqs(1) {
		t.Fatalf("svb was handed %v after sva's suspicion, want the requeued [1]", got)
	}
	if st := co.StatsNow(); st.Rescheduled != 1 || st.PushedTasks != 2 || st.Ongoing != 1 {
		t.Fatalf("after suspicion: %+v", st)
	}
	if got := assigned(a); len(got) != 0 {
		t.Fatalf("the suspect was handed %v", got)
	}
}

func TestRequeueAfterServerSyncIsPushedElsewhere(t *testing.T) {
	w, co, a, b := rig2(t, Config{HeartbeatPeriod: time.Second})
	beat(a, 1)
	w.RunFor(time.Second)
	a.env.Send("co", submit(1))
	w.RunFor(5 * time.Second) // past the in-flight grace, short of suspicion
	assigned(a)
	beat(b, 1)
	w.RunFor(time.Second)
	acks(b)
	// sva restarted and holds nothing: its sync says the assignment died.
	a.env.Send("co", &proto.ServerSync{From: "sva"})
	w.RunFor(time.Second)
	if got := assigned(b); seqs(got...) != seqs(1) {
		t.Fatalf("svb was handed %v after sva's sync, want the requeued [1]", got)
	}
	if st := co.StatsNow(); st.Rescheduled != 1 || st.PushedTasks != 2 {
		t.Fatalf("after sync: %+v", st)
	}
}

func TestPushedResultIsNotSentAgainOnceHeld(t *testing.T) {
	w, co, sv, cli := rig2(t, Config{})
	cli.env.Send("co", submit(1))
	cli.env.Send("co", submit(2))
	cli.env.Send("co", &proto.Poll{User: "u", Session: 1})
	w.RunFor(time.Second)
	results(cli)
	for i := 1; i <= 2; i++ {
		sv.env.Send("co", &proto.TaskResult{From: "sva", Task: proto.TaskID{Call: call(i), Instance: 1}})
		w.RunFor(10 * time.Millisecond)
		if got := results(cli); seqs(got...) != seqs(proto.RPCSeq(i)) {
			t.Fatalf("result %d: pushed %v, want it alone", i, got)
		}
	}
	if st := co.StatsNow(); st.PushedResults != 2 {
		t.Fatalf("pushed results = %d, want 2", st.PushedResults)
	}
	// A poll that says the client holds them gets neither again.
	for _, poll := range []*proto.Poll{
		{User: "u", Session: 1, Ack: 2},
		{User: "u", Session: 1, Ack: 1, Have: []proto.RPCSeq{2}},
	} {
		cli.env.Send("co", poll)
		w.RunFor(time.Second)
		if got := results(cli); len(got) != 0 {
			t.Fatalf("poll %+v was answered with %v, all held already", poll, got)
		}
	}
	// A subscription older than the timeout is dead.
	cli.env.Send("co", submit(3))
	w.RunFor(time.Minute)
	sv.env.Send("co", &proto.TaskResult{From: "sva", Task: proto.TaskID{Call: call(3), Instance: 1}})
	w.RunFor(time.Second)
	if got := results(cli); len(got) != 0 {
		t.Fatalf("pushed %v to a session that has not polled for a minute", got)
	}
}

// recorder notes every message on its way to the handler.
type recorder struct {
	node.Handler
	note func(from proto.NodeID, m proto.Message)
}

func (r *recorder) Receive(from proto.NodeID, m proto.Message) {
	r.note(from, m)
	r.Handler.Receive(from, m)
}

func TestPushRacingAPollIsDeliveredOnce(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 11})
	co := New(Config{Coordinators: []proto.NodeID{"co"}, DBCost: db.CostModel{PerOp: time.Microsecond}})
	delivered := 0
	cli := client.New(client.Config{
		User: "u", Session: 1, Coordinators: []proto.NodeID{"co"},
		PollPeriod: time.Second, Logging: msglog.Optimistic, Disk: msglog.InstantDisk(),
		OnResult: func(proto.Result, time.Time) { delivered++ },
	})
	sent := 0
	w.AddNode("co", co)
	w.AddNode("cli", &recorder{Handler: cli, note: func(_ proto.NodeID, m proto.Message) {
		if res, ok := m.(*proto.Results); ok {
			sent += len(res.Results)
		}
	}})
	w.AddNode("sv", &peer{})
	for _, id := range w.Nodes() {
		w.Start(id)
	}
	w.Schedule(0, func() { cli.Submit("echo", []byte("p"), 0, 0) })
	w.RunFor(3 * time.Second) // the client has polled: it is subscribed
	if subscriptions(co) != 1 {
		t.Fatal("client not subscribed")
	}
	// The result lands, and so does a poll the client sent before the
	// push reached it: the coordinator cannot know, and answers both.
	w.Schedule(0, func() {
		co.Receive("sv", &proto.TaskResult{From: "sv", Task: proto.TaskID{Call: call(1), Instance: 1}, Output: []byte("out")})
		co.Receive("cli", &proto.Poll{User: "u", Session: 1})
	})
	w.RunFor(100 * time.Millisecond)
	if sent != 2 {
		t.Fatalf("the client was sent the result %d times, want 2 (the push and the racing poll's reply)", sent)
	}
	if delivered != 1 || cli.ResultCount() != 1 {
		t.Fatalf("the application saw the result %d times (client holds %d), want once", delivered, cli.ResultCount())
	}
}

// pullOnlyTrace is the sha256 of the message trace below as recorded on
// the commit before late replies existed (6c2d52f): with PullOnly set,
// today's coordinator must send the same messages at the same instants.
// Both digests were taken again when codec version 2 dropped a
// submission's deadline and a result's execution time from the bytes
// they hash; every message of both runs, printed field by field without
// those two, was the same as before, at the same instant.
const pullOnlyTrace = "7bd47308c8e55b1b89d2ab0b946689cf6f0552e71043a1fe316b3158f94c43bd"

// lateReplyTrace is the sha256 of the same trace with late replies on,
// as recorded before replies left the handlers as values instead of
// closures: the modelled database cost must delay each reply by as much,
// and release it in the same order, as it did then.
const lateReplyTrace = "798f1f1db187833204c7c1beed7c73aeb3a55aaa2ab5a69c1778b4e4b78198c6"

// gridTrace runs 2 clients and 3 one-slot servers against one
// coordinator for two virtual minutes — 40 calls, one server crash and
// restart — and returns the sha256 over every message delivered: time,
// sender, receiver and encoded bytes.
func gridTrace(t *testing.T, cfg Config) string {
	t.Helper()
	const period, timeout = 5 * time.Second, 15 * time.Second
	h := sha256.New()
	w := sim.NewWorld(sim.Config{Seed: 2004})
	record := func(id proto.NodeID, inner node.Handler) {
		w.AddNode(id, &recorder{Handler: inner, note: func(from proto.NodeID, m proto.Message) {
			fmt.Fprintf(h, "%d %s>%s %x\n", w.Elapsed(), from, id, proto.EncodeMessage(m))
		}})
	}
	cfg.Coordinators = []proto.NodeID{"co"}
	cfg.HeartbeatPeriod, cfg.HeartbeatTimeout = period, timeout
	cfg.DBCost = db.ConfinedCost()
	record("co", New(cfg))
	for i := 0; i < 3; i++ {
		record(proto.NodeID(fmt.Sprintf("sv%d", i)), server.New(server.Config{
			Coordinators: []proto.NodeID{"co"}, HeartbeatPeriod: period, SuspicionTimeout: timeout,
		}))
	}
	var clients []*client.Client
	for i := 0; i < 2; i++ {
		cli := client.New(client.Config{
			User: proto.UserID(fmt.Sprintf("u%d", i)), Session: 1, Coordinators: []proto.NodeID{"co"},
			PollPeriod: time.Second, SuspicionTimeout: timeout, Disk: msglog.InstantDisk(),
		})
		clients = append(clients, cli)
		record(proto.NodeID(fmt.Sprintf("cli%d", i)), cli)
	}
	for _, id := range w.Nodes() {
		w.Start(id)
	}
	for i := 0; i < 20; i++ {
		for _, cli := range clients {
			w.Schedule(time.Duration(i)*1500*time.Millisecond, func() {
				cli.Submit("synthetic", []byte("params"), 2*time.Second, 16)
			})
		}
	}
	w.Schedule(12*time.Second, func() { w.Crash("sv1") })
	w.Schedule(50*time.Second, func() { w.Restart("sv1") })
	w.RunFor(2 * time.Minute)
	for _, cli := range clients {
		if cli.ResultCount() != 20 {
			t.Fatalf("a client holds %d of 20 results after two minutes", cli.ResultCount())
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestPullOnlyReproducesThePureTimerProtocol(t *testing.T) {
	if got := gridTrace(t, Config{PullOnly: true}); got != pullOnlyTrace {
		t.Fatalf("PullOnly message trace = %s, want %s: the switch no longer restores the protocol the simulated figures measure",
			got, pullOnlyTrace)
	}
	if got := gridTrace(t, Config{}); got != lateReplyTrace {
		t.Fatalf("late-reply message trace = %s, want %s: a reply left at another instant or in another order",
			got, lateReplyTrace)
	}
}
