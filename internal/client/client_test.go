package client

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"rpcv/internal/msglog"
	"rpcv/internal/node"
	"rpcv/internal/node/nodetest"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/sim"
)

// fakeCoord is a scripted coordinator stand-in.
type fakeCoord struct {
	env     node.Env
	jobs    map[proto.RPCSeq]*proto.Submit
	results map[proto.RPCSeq]proto.Result
	silent  bool
	submits int
	fetches int

	polls []*proto.Poll

	// collects makes the stand-in forget what a Poll's Ack has passed,
	// as the coordinator does: collected is the session's watermark.
	collects  bool
	collected proto.RPCSeq
}

func newFakeCoord() *fakeCoord {
	return &fakeCoord{
		jobs:    make(map[proto.RPCSeq]*proto.Submit),
		results: make(map[proto.RPCSeq]proto.Result),
	}
}

func (f *fakeCoord) Start(env node.Env) { f.env = env }
func (f *fakeCoord) Stop()              {}
func (f *fakeCoord) Receive(from proto.NodeID, msg proto.Message) {
	if f.silent {
		return
	}
	switch m := msg.(type) {
	case *proto.Submit:
		f.submits++
		f.jobs[m.Call.Seq] = m
		f.env.Send(from, &proto.SubmitAck{Call: m.Call, MaxSeq: f.maxSeq()})
	case *proto.Poll:
		f.polls = append(f.polls, m)
		if f.collects && m.Ack > f.collected {
			f.collected = m.Ack
			for seq := range f.jobs {
				if seq <= f.collected {
					delete(f.jobs, seq)
					delete(f.results, seq)
				}
			}
		}
		have := make(map[proto.RPCSeq]bool)
		for _, s := range m.Have {
			have[s] = true
		}
		out := &proto.Results{User: m.User, Session: m.Session}
		for seq, res := range f.results {
			if seq > m.Ack && !have[seq] {
				out.Results = append(out.Results, res)
			}
		}
		f.env.Send(from, out)
	case *proto.SyncRequest:
		rep := &proto.SyncReply{User: m.User, Session: m.Session, MaxSeq: max(f.maxSeq(), f.collected), Collected: f.collected}
		if !m.HaveLog {
			for seq := range f.jobs {
				rep.Known = append(rep.Known, seq)
			}
		}
		f.env.Send(from, rep)
	case *proto.FetchResult:
		f.fetches++
		rep := &proto.FetchReply{Call: proto.CallID{User: m.User, Session: m.Session, Seq: m.Seq}}
		if _, ok := f.jobs[m.Seq]; ok {
			rep.Known = true
		}
		if res, ok := f.results[m.Seq]; ok {
			rep.Finished = true
			rep.Result = res
		}
		f.env.Send(from, rep)
	}
}

func (f *fakeCoord) maxSeq() proto.RPCSeq {
	var max proto.RPCSeq
	for s := range f.jobs {
		if s > max {
			max = s
		}
	}
	return max
}

func (f *fakeCoord) finish(seq proto.RPCSeq, output string) {
	call := proto.CallID{User: "u", Session: 1, Seq: seq}
	f.results[seq] = proto.Result{Call: call, Output: []byte(output), Server: "srv"}
}

func rig(t *testing.T, cfg Config) (*sim.World, *Client, *fakeCoord) {
	t.Helper()
	if cfg.User == "" {
		cfg.User = "u"
	}
	if cfg.Session == 0 {
		cfg.Session = 1
	}
	if len(cfg.Coordinators) == 0 {
		cfg.Coordinators = []proto.NodeID{"co"}
	}
	if cfg.Disk == nil {
		cfg.Disk = msglog.InstantDisk()
	}
	w := sim.NewWorld(sim.Config{Seed: 21})
	cli := New(cfg)
	fc := newFakeCoord()
	w.AddNode("co", fc)
	w.AddNode("cli", cli)
	w.Start("co")
	w.Start("cli")
	return w, cli, fc
}

func TestSubmitAndCollect(t *testing.T) {
	var got []proto.Result
	w, cli, fc := rig(t, Config{
		PollPeriod: time.Second,
		OnResult:   func(res proto.Result, _ time.Time) { got = append(got, res) },
	})

	w.Schedule(0, func() { cli.Submit("svc", []byte("p"), time.Second, 4) })
	w.RunFor(time.Second)
	if fc.submits != 1 {
		t.Fatal("submit never arrived")
	}
	fc.finish(1, "out")
	w.RunFor(3 * time.Second)
	if len(got) != 1 || string(got[0].Output) != "out" {
		t.Fatalf("results = %+v", got)
	}
	if cli.ResultCount() != 1 {
		t.Fatal("result count wrong")
	}
	// Duplicate deliveries don't double-fire.
	w.RunFor(5 * time.Second)
	if len(got) != 1 {
		t.Fatalf("duplicate result callback: %d", len(got))
	}
}

func TestSequencesMonotonic(t *testing.T) {
	w, cli, _ := rig(t, Config{})
	var seqs []proto.RPCSeq
	w.Schedule(0, func() {
		for i := 0; i < 5; i++ {
			seqs = append(seqs, cli.Submit("svc", nil, time.Second, 1))
		}
	})
	w.RunFor(time.Second)
	for i, s := range seqs {
		if s != proto.RPCSeq(i+1) {
			t.Fatalf("seqs = %v", seqs)
		}
	}
}

func TestSubmitCompletionRequiresAck(t *testing.T) {
	completed := 0
	w, cli, fc := rig(t, Config{
		OnSubmitComplete: func(proto.RPCSeq, time.Time, time.Time) { completed++ },
	})
	fc.silent = true
	w.Schedule(0, func() { cli.Submit("svc", nil, time.Second, 1) })
	w.RunFor(10 * time.Second)
	if completed != 0 {
		t.Fatal("submission completed without coordinator ack")
	}
	fc.silent = false
	// The client re-syncs only on suspicion; resend via sync.
	w.Schedule(0, cli.SyncNow)
	w.RunFor(10 * time.Second)
	if completed != 1 {
		t.Fatalf("completed = %d after ack, want 1", completed)
	}
}

func TestRestartRecoversLogAndResumesSeq(t *testing.T) {
	w, cli, fc := rig(t, Config{Logging: msglog.BlockingPessimistic})
	w.Schedule(0, func() {
		cli.Submit("svc", []byte("a"), time.Second, 1)
		cli.Submit("svc", []byte("b"), time.Second, 1)
	})
	w.RunFor(time.Second)
	w.Restart("cli")
	w.RunFor(time.Second)
	var seq proto.RPCSeq
	w.Schedule(0, func() { seq = cli.Submit("svc", nil, time.Second, 1) })
	w.RunFor(time.Second)
	if seq != 3 {
		t.Fatalf("post-restart seq = %d, want 3", seq)
	}
	_ = fc
}

func TestRestartWithLostLogRebuildsFromCoordinator(t *testing.T) {
	w, cli, fc := rig(t, Config{Logging: msglog.BlockingPessimistic, PollPeriod: time.Hour})
	w.Schedule(0, func() {
		cli.Submit("svc", []byte("a"), time.Second, 4)
		cli.Submit("svc", []byte("b"), time.Second, 4)
	})
	w.RunFor(time.Second)
	fc.finish(1, "r1")
	fc.finish(2, "r2")

	w.Crash("cli")
	w.WipeDisk("cli")
	w.Start("cli")
	w.Schedule(0, cli.SyncNow)
	w.RunFor(time.Minute)
	if cli.ResultCount() != 2 {
		t.Fatalf("rebuilt results = %d, want 2", cli.ResultCount())
	}
	// Sequence counter resumes past the recovered calls.
	var seq proto.RPCSeq
	w.Schedule(0, func() { seq = cli.Submit("svc", nil, time.Second, 1) })
	w.RunFor(time.Second)
	if seq != 3 {
		t.Fatalf("post-rebuild seq = %d, want 3", seq)
	}
}

func TestSyncResendsMissingSubmissions(t *testing.T) {
	w, cli, fc := rig(t, Config{Logging: msglog.BlockingPessimistic})
	w.Schedule(0, func() {
		cli.Submit("svc", []byte("a"), time.Second, 1)
		cli.Submit("svc", []byte("b"), time.Second, 1)
	})
	w.RunFor(time.Second)
	// The coordinator loses everything.
	fc.jobs = make(map[proto.RPCSeq]*proto.Submit)
	w.Schedule(0, cli.SyncNow)
	w.RunFor(time.Second)
	if len(fc.jobs) != 2 {
		t.Fatalf("coordinator rebuilt %d jobs, want 2", len(fc.jobs))
	}
}

func TestFailoverOnSilence(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 23})
	cli := New(Config{
		User: "u", Session: 1,
		Coordinators:     []proto.NodeID{"co1", "co2"},
		SuspicionTimeout: 15 * time.Second,
		PollPeriod:       2 * time.Second,
		Disk:             msglog.InstantDisk(),
	})
	c1, c2 := newFakeCoord(), newFakeCoord()
	w.AddNode("co1", c1)
	w.AddNode("co2", c2)
	w.AddNode("cli", cli)
	w.Start("co1")
	w.Start("co2")
	w.Start("cli")
	w.Schedule(0, func() { cli.Submit("svc", nil, time.Second, 1) })
	w.RunFor(5 * time.Second)
	if cli.Preferred() != "co1" {
		t.Fatalf("preferred = %s", cli.Preferred())
	}
	c1.silent = true
	w.RunFor(time.Minute)
	if cli.Preferred() != "co2" {
		t.Fatalf("no failover: preferred = %s", cli.Preferred())
	}
	if cli.StatsNow().Failovers == 0 {
		t.Fatal("failover not counted")
	}
	// The resynchronization pushed the logged submission to co2.
	if len(c2.jobs) != 1 {
		t.Fatalf("co2 jobs = %d, want 1 after failover sync", len(c2.jobs))
	}
}

func TestForcePreferred(t *testing.T) {
	w, cli, _ := rig(t, Config{})
	w.Schedule(0, func() { cli.ForcePreferred("elsewhere") })
	w.RunFor(time.Millisecond)
	if cli.Preferred() != "elsewhere" {
		t.Fatal("ForcePreferred ignored")
	}
}

func TestFetchCall(t *testing.T) {
	w, cli, fc := rig(t, Config{PollPeriod: time.Hour})
	w.Schedule(0, func() { cli.Submit("svc", []byte("a"), time.Second, 4) })
	w.RunFor(time.Second)
	fc.finish(1, "r1")
	w.Schedule(0, func() { cli.FetchCall(1) })
	w.RunFor(time.Second)
	if cli.ResultCount() != 1 {
		t.Fatal("targeted fetch did not deliver the result")
	}
	if fc.fetches != 1 {
		t.Fatalf("fetches = %d, want 1", fc.fetches)
	}
}

func TestAdoptsResultForUnknownCall(t *testing.T) {
	// A result for a call the client lost (optimistic log crash): adopt.
	w, cli, fc := rig(t, Config{PollPeriod: time.Second})
	fc.finish(7, "ghost")
	w.RunFor(3 * time.Second)
	if cli.ResultCount() != 1 {
		t.Fatal("ghost result not adopted")
	}
	var seq proto.RPCSeq
	w.Schedule(0, func() { seq = cli.Submit("svc", nil, time.Second, 1) })
	w.RunFor(time.Millisecond)
	if seq != 8 {
		t.Fatalf("seq after adoption = %d, want 8 (no ID reuse)", seq)
	}
}

// TestLogHoldsTheUndeliveredCalls: the client's garbage collection is
// triggered by delivery, not by the user — a call's log entry goes the
// moment its result arrives — so the log holds exactly the undelivered
// calls (plus the entry of the highest call delivered, which keeps the
// sequence counter's place), and they can still be resent.
func TestLogHoldsTheUndeliveredCalls(t *testing.T) {
	w, cli, fc := rig(t, Config{Logging: msglog.BlockingPessimistic, PollPeriod: time.Second})
	w.Schedule(0, func() {
		for _, p := range []string{"a", "b", "c", "d"} {
			cli.Submit("svc", []byte(p), time.Second, 1)
		}
	})
	w.RunFor(time.Second)
	logged := func() []string { return w.Disk("cli").Keys("client/submit/") }
	if got := logged(); len(got) != 4 {
		t.Fatalf("setup: log holds %v, want 4 entries", got)
	}
	fc.finish(1, "r1")
	fc.finish(3, "r3")
	w.RunFor(3 * time.Second)
	if cli.ResultCount() != 2 {
		t.Fatalf("setup: results = %d", cli.ResultCount())
	}
	want := []string{"client/submit/" + logKey(2), "client/submit/" + logKey(3), "client/submit/" + logKey(4)}
	if got := logged(); !slices.Equal(got, want) {
		t.Fatalf("log holds %v, want %v: the undelivered calls 2 and 4, and 3 as the highest delivered", got, want)
	}
	if st := cli.StatsNow(); st.LoggedSeqs != 3 || st.Tracked != 3 || st.Collected != 1 {
		t.Fatalf("stats = %+v, want 3 logged, 3 tracked (2, 3, 4) above watermark 1", st)
	}
	// The undelivered calls can still be resent from the log; the
	// delivered ones are not.
	fc.jobs = make(map[proto.RPCSeq]*proto.Submit)
	w.Schedule(0, cli.SyncNow)
	w.RunFor(time.Second)
	if got := slices.Sorted(maps.Keys(fc.jobs)); !slices.Equal(got, []proto.RPCSeq{2, 4}) {
		t.Fatalf("resent %v after the coordinator lost everything, want the undelivered calls [2 4]", got)
	}
	// Everything delivered: one entry stays, so a restart still knows
	// which seqs the session has used.
	fc.finish(2, "r2")
	fc.finish(4, "r4")
	w.RunFor(3 * time.Second)
	if got := logged(); !slices.Equal(got, want[2:]) {
		t.Fatalf("log holds %v once every call is delivered, want %v alone", got, want[2:])
	}
	w.Restart("cli")
	var seq proto.RPCSeq
	w.Schedule(0, func() { seq = cli.Submit("svc", nil, time.Second, 1) })
	w.RunFor(time.Second)
	if seq != 5 {
		t.Fatalf("seq after restart = %d, want 5 (no reuse of a delivered call's seq)", seq)
	}
}

// wantPoll checks the watermark and the out-of-order window of one poll.
func wantPoll(t *testing.T, p *proto.Poll, ack proto.RPCSeq, have ...proto.RPCSeq) {
	t.Helper()
	if p.Ack != ack || !slices.Equal(p.Have, have) {
		t.Fatalf("poll = {Ack: %d, Have: %v}, want {Ack: %d, Have: %v}", p.Ack, p.Have, ack, have)
	}
}

func (f *fakeCoord) lastPoll(t *testing.T) *proto.Poll {
	t.Helper()
	if len(f.polls) == 0 {
		t.Fatal("no poll arrived")
	}
	return f.polls[len(f.polls)-1]
}

func TestPollCarriesWatermarkAndWindow(t *testing.T) {
	delivered := 0
	w, cli, fc := rig(t, Config{
		Logging:    msglog.BlockingPessimistic,
		PollPeriod: time.Second,
		OnResult:   func(proto.Result, time.Time) { delivered++ },
	})
	w.Schedule(0, func() {
		for i := 0; i < 6; i++ {
			cli.Submit("svc", nil, time.Second, 1)
		}
	})
	w.RunFor(2 * time.Second)
	wantPoll(t, fc.lastPoll(t), 0)

	// Out-of-order completion: the watermark stops below the hole, the
	// results above it ride in Have, ascending.
	fc.finish(1, "r1")
	fc.finish(2, "r2")
	fc.finish(5, "r5")
	fc.finish(4, "r4")
	w.RunFor(3 * time.Second)
	wantPoll(t, fc.lastPoll(t), 2, 4, 5)

	// The hole closes: the watermark jumps over the whole window.
	fc.finish(3, "r3")
	w.RunFor(3 * time.Second)
	wantPoll(t, fc.lastPoll(t), 5)
	if delivered != 5 || cli.ResultCount() != 5 {
		t.Fatalf("delivered %d, ResultCount %d, want 5 and 5 (each result exactly once)", delivered, cli.ResultCount())
	}

	// A restart resumes at the stored watermark: the session has
	// acknowledged those five results and the coordinator has let them
	// go, so the new incarnation neither asks for them nor sees them
	// again, and still counts them.
	before := len(fc.polls)
	w.Restart("cli")
	w.RunFor(3 * time.Second)
	wantPoll(t, fc.polls[before], 5)
	wantPoll(t, fc.lastPoll(t), 5)
	if delivered != 5 || cli.ResultCount() != 5 {
		t.Fatalf("after restart: delivered %d, ResultCount %d, want 5 and 5", delivered, cli.ResultCount())
	}
	var seq proto.RPCSeq
	w.Schedule(0, func() { seq = cli.Submit("svc", nil, time.Second, 1) })
	w.RunFor(time.Second)
	if seq != 7 {
		t.Fatalf("seq after restart = %d, want 7", seq)
	}
}

// AckSoon brings the next Poll forward to the end of the message being
// handled: one Poll for a Results message however many of its results
// asked, its Ack past all of them, none when the watermark has nothing
// to pass — and a client nobody asks polls on its timer only.
func TestAckSoonPollsOnceTheMessageIsHandled(t *testing.T) {
	for _, asks := range []bool{true, false} {
		var cli *Client
		cfg := Config{Logging: msglog.BlockingPessimistic, PollPeriod: time.Minute}
		if asks {
			cfg.OnResult = func(proto.Result, time.Time) { cli.AckSoon() }
		}
		w, c, fc := rig(t, cfg)
		cli = c
		w.Schedule(0, func() {
			for i := 0; i < 4; i++ {
				cli.Submit("svc", nil, time.Second, 1)
			}
		})
		w.RunFor(time.Second)
		push := func(seqs ...proto.RPCSeq) {
			t.Helper()
			out := &proto.Results{User: "u", Session: 1}
			for _, seq := range seqs {
				fc.finish(seq, "r")
				out.Results = append(out.Results, fc.results[seq])
			}
			w.Schedule(0, func() { fc.env.Send("cli", out) })
			w.RunFor(time.Second)
		}
		push(1, 2)
		if !asks {
			if len(fc.polls) != 0 {
				t.Fatalf("unasked: %d polls before the period", len(fc.polls))
			}
			continue
		}
		if len(fc.polls) != 1 {
			t.Fatalf("%d polls for one Results message of two results, want 1", len(fc.polls))
		}
		wantPoll(t, fc.lastPoll(t), 2)
		push(4) // above a hole: the watermark cannot move, the timer will say Have
		if len(fc.polls) != 1 {
			t.Fatalf("a result above a hole sent a poll: %d", len(fc.polls))
		}
		push(3)
		if len(fc.polls) != 2 {
			t.Fatalf("%d polls, want 2", len(fc.polls))
		}
		wantPoll(t, fc.lastPoll(t), 4)
	}
}

func TestPendingGaugeCountsCallsWithoutResult(t *testing.T) {
	o := obs.New("cli")
	w, cli, fc := rig(t, Config{Logging: msglog.BlockingPessimistic, PollPeriod: time.Second, Obs: o})
	pending := func() float64 {
		v, _ := o.Registry().Value("rpcv_client_pending_calls", obs.L("node", "cli"))
		return v
	}
	w.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			cli.Submit("svc", nil, time.Second, 1)
		}
	})
	w.RunFor(time.Second)
	if got := pending(); got != 3 {
		t.Fatalf("pending after 3 submits = %v, want 3", got)
	}
	fc.finish(2, "r2")
	fc.finish(9, "ghost") // adopted: never pending
	w.RunFor(3 * time.Second)
	w.RunFor(3 * time.Second) // a duplicate delivery must not count twice
	if got := pending(); got != 2 {
		t.Fatalf("pending after one result and one adoption = %v, want 2", got)
	}
	// Recovered calls hold no result: all three are pending again, the
	// adopted one (never logged) is gone.
	fc.silent = true
	w.Restart("cli")
	w.RunFor(500 * time.Millisecond)
	if got := pending(); got != 3 {
		t.Fatalf("pending after restart = %v, want 3", got)
	}
}

func TestAckCheckIgnoresCallsWithResults(t *testing.T) {
	// The SubmitAck is lost but the result arrives: the call is
	// registered by definition, no resynchronization is due.
	w, cli, fc := rig(t, Config{PollPeriod: time.Second, AckResyncTimeout: 10 * time.Second})
	fc.silent = true
	w.Schedule(0, func() { cli.Submit("svc", nil, time.Second, 1) })
	w.RunFor(time.Second)
	fc.silent = false
	fc.finish(1, "r1")
	w.RunFor(time.Minute)
	if st := cli.StatsNow(); st.Results != 1 || st.Acked != 0 || st.Syncs != 0 {
		t.Fatalf("stats = %+v, want 1 result, 0 acks, 0 syncs", st)
	}
}

// finishAll gives every registered job a result.
func (f *fakeCoord) finishAll() {
	for seq := range f.jobs {
		f.finish(seq, fmt.Sprintf("r%d", seq))
	}
}

// A client that lost its store — the user relaunched the application
// on another machine — learns the session's collected watermark from
// the SyncReply it already waits for: it counts the calls below it as
// delivered (an earlier incarnation held and acknowledged them), does
// not ask for them, does not reuse their seqs, and its own watermark
// moves on from there instead of waiting for results that are gone.
func TestWipedClientLearnsTheWatermarkFromTheCoordinator(t *testing.T) {
	delivered := map[proto.RPCSeq]int{}
	w, cli, fc := rig(t, Config{
		Logging: msglog.BlockingPessimistic, PollPeriod: time.Second,
		OnResult: func(res proto.Result, _ time.Time) { delivered[res.Call.Seq]++ },
	})
	fc.collects = true
	w.Schedule(0, func() {
		for i := 0; i < 5; i++ {
			cli.Submit("svc", nil, time.Second, 1)
		}
	})
	w.RunFor(time.Second)
	for seq := proto.RPCSeq(1); seq <= 4; seq++ {
		fc.finish(seq, "r")
	}
	w.RunFor(3 * time.Second) // fetched, then acknowledged: 1..4 are collected
	if fc.collected != 4 || len(fc.jobs) != 1 {
		t.Fatalf("setup: coordinator watermark %d with %d jobs left, want 4 and 1", fc.collected, len(fc.jobs))
	}

	w.Crash("cli")
	w.WipeDisk("cli")
	w.Start("cli")
	w.Schedule(0, cli.SyncNow)
	w.RunFor(3 * time.Second)
	if st := cli.StatsNow(); st.Collected != 4 || st.Tracked != 1 || cli.ResultCount() != 4 {
		t.Fatalf("after the sync: %+v, ResultCount %d; want watermark 4, call 5 tracked, 4 results counted", st, cli.ResultCount())
	}
	wantPoll(t, fc.lastPoll(t), 4)
	var seq proto.RPCSeq
	w.Schedule(0, func() { seq = cli.Submit("svc", nil, time.Second, 1) })
	w.RunFor(time.Second)
	if seq != 6 {
		t.Fatalf("seq after the relaunch = %d, want 6 (no reuse below the coordinator's maximum)", seq)
	}
	// The watermark is not stalled on the calls it never saw: it passes
	// 5 and 6 as their results arrive.
	fc.finishAll()
	w.RunFor(3 * time.Second)
	wantPoll(t, fc.lastPoll(t), 6)
	if cli.ResultCount() != 6 || delivered[5] != 1 || delivered[6] != 1 {
		t.Fatalf("ResultCount %d, deliveries %v; want 6 and one each of 5 and 6", cli.ResultCount(), delivered)
	}
	for seq := proto.RPCSeq(1); seq <= 4; seq++ {
		if delivered[seq] != 1 {
			t.Fatalf("result %d delivered %d times over both incarnations, want once (by the first)", seq, delivered[seq])
		}
	}
}

// A caller that cannot rule out a history (gridrpc, for a session ID it
// was given) numbers its calls through AfterSync: nothing is numbered
// before the coordinator's reply, a lost request is repeated every poll
// period, and the call then takes a seq above the collected watermark —
// below it the coordinator would acknowledge the Submit and never run it.
func TestAfterSyncHoldsNumberingUntilTheCoordinatorAnswers(t *testing.T) {
	w, cli, fc := rig(t, Config{Logging: msglog.BlockingPessimistic, PollPeriod: time.Second})
	fc.collects = true
	w.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			cli.Submit("svc", nil, time.Second, 1)
		}
	})
	w.RunFor(time.Second)
	fc.finishAll()
	w.RunFor(3 * time.Second)
	if fc.collected != 3 || len(fc.jobs) != 0 {
		t.Fatalf("setup: coordinator watermark %d with %d jobs left, want 3 and 0", fc.collected, len(fc.jobs))
	}

	w.Crash("cli")
	w.WipeDisk("cli")
	w.Start("cli")
	fc.silent = true // the first request is lost
	var seqs []proto.RPCSeq
	submit := func() { seqs = append(seqs, cli.Submit("svc", nil, time.Second, 1)) }
	w.Schedule(0, func() {
		cli.AfterSync(submit)
		cli.AfterSync(submit)
	})
	w.RunFor(2500 * time.Millisecond)
	if len(seqs) != 0 {
		t.Fatalf("numbered %v before any coordinator answered", seqs)
	}
	if st := cli.StatsNow(); st.Syncs < 2 {
		t.Fatalf("%d sync requests in 2.5 poll periods of silence, want the first and a repeat per period", st.Syncs)
	}
	fc.silent = false
	w.RunFor(1500 * time.Millisecond)
	if !slices.Equal(seqs, []proto.RPCSeq{4, 5}) {
		t.Fatalf("numbered %v after the reply, want [4 5] (the coordinator has collected 1..3)", seqs)
	}
	syncs := cli.StatsNow().Syncs
	w.Schedule(0, func() { cli.AfterSync(submit) })
	w.RunFor(time.Second)
	if !slices.Equal(seqs, []proto.RPCSeq{4, 5, 6}) || cli.StatsNow().Syncs != syncs {
		t.Fatalf("once synchronized: numbered %v with %d more syncs, want 6 at once and none", seqs, cli.StatsNow().Syncs-syncs)
	}
	fc.finishAll()
	w.RunFor(3 * time.Second)
	wantPoll(t, fc.lastPoll(t), 6)
}

// A restart with the store intact resumes the watermark, the sequence
// counter and the result count from it (TestPollCarriesWatermarkAndWindow);
// a crash between a Poll and the record of the watermark it carried is
// made up for by the coordinator's reply to the first sync.
func TestLostWatermarkRecordIsMadeUpForByTheSync(t *testing.T) {
	w, cli, fc := rig(t, Config{Logging: msglog.BlockingPessimistic, PollPeriod: time.Second})
	fc.collects = true
	w.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			cli.Submit("svc", []byte("p"), time.Second, 1)
		}
	})
	w.RunFor(time.Second)
	fc.finish(1, "r1")
	fc.finish(2, "r2")
	fc.finish(4, "r4")
	w.RunFor(3 * time.Second)
	wantPoll(t, fc.lastPoll(t), 2, 4)

	// The record of watermark 2 is lost (the crash beat its write), the
	// coordinator has collected up to it.
	if err := w.Disk("cli").Delete(watermarkKey); err != nil {
		t.Fatal(err)
	}
	before := len(fc.polls)
	w.Restart("cli")
	w.RunFor(3 * time.Second)
	if st := cli.StatsNow(); st.Collected != 2 || cli.ResultCount() != 3 {
		t.Fatalf("after the restart: %+v, ResultCount %d; want watermark 2 from the SyncReply, and result 4 fetched again", st, cli.ResultCount())
	}
	for _, p := range fc.polls[before:] {
		if p.Ack > 2 {
			t.Fatalf("poll %+v acknowledges more than the session holds", p)
		}
	}
	wantPoll(t, fc.lastPoll(t), 2, 4)
	var seq proto.RPCSeq
	w.Schedule(0, func() { seq = cli.Submit("svc", nil, time.Second, 1) })
	w.RunFor(time.Second)
	if seq != 5 {
		t.Fatalf("seq after restart = %d, want 5", seq)
	}
}

// A result at or below the watermark is one the client delivered,
// acknowledged and stopped tracking: when the coordinator sends it
// again (a late reply crossing the Poll that acknowledged it), it is
// neither delivered a second time nor adopted as the result of a call
// the client never knew.
func TestResultBelowTheWatermarkIsNotDeliveredTwice(t *testing.T) {
	delivered := 0
	w, cli, fc := rig(t, Config{PollPeriod: time.Second, OnResult: func(proto.Result, time.Time) { delivered++ }})
	w.Schedule(0, func() { cli.Submit("svc", nil, time.Second, 1) })
	w.RunFor(time.Second)
	fc.finish(1, "r1")
	w.RunFor(3 * time.Second) // delivered; the next poll's watermark passes it
	if st := cli.StatsNow(); delivered != 1 || st.Collected != 1 || st.Tracked != 0 {
		t.Fatalf("setup: delivered %d, %+v", delivered, st)
	}
	fc.env.Send("cli", &proto.Results{User: "u", Session: 1, Results: []proto.Result{fc.results[1]}})
	w.RunFor(time.Second)
	if st := cli.StatsNow(); delivered != 1 || cli.ResultCount() != 1 || st.Tracked != 0 {
		t.Fatalf("after the duplicate: delivered %d, ResultCount %d, %+v", delivered, cli.ResultCount(), st)
	}
}

// crashCfg is the oracle's client: pessimistic, so a completed
// submission is a durable one.
func crashCfg(completed func(proto.RPCSeq)) Config {
	return Config{User: "u", Session: 1, Coordinators: []proto.NodeID{"co"},
		Logging: msglog.NonBlockingPessimistic, Disk: msglog.InstantDisk(), AckResyncTimeout: -1,
		OnSubmitComplete: func(seq proto.RPCSeq, _, _ time.Time) { completed(seq) }}
}

func crashParams(seq, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(i*5 + seq)
	}
	return p
}

// clientCrashRun is one incarnation of the oracle's session: calls of
// every size class submitted and acknowledged, results delivered out of
// order (each delivery drops a log entry), the watermark passing them,
// and one more large call.
type clientCrashRun struct {
	submitted map[proto.RPCSeq]*proto.Submit
	completed map[proto.RPCSeq]bool // submission completed before the cut
	delivered map[proto.RPCSeq]bool // a result was handed over, cut or no cut
}

func runClientCrashScenario(d *nodetest.CrashDisk) clientCrashRun {
	r := clientCrashRun{submitted: map[proto.RPCSeq]*proto.Submit{}, completed: map[proto.RPCSeq]bool{}, delivered: map[proto.RPCSeq]bool{}}
	env := nodetest.NewEnv("cli", d.Disk)
	c := New(crashCfg(func(seq proto.RPCSeq) { r.completed[seq] = !d.Cut.Off }))
	c.Start(env)
	submit := func(size int) {
		seq := c.Submit("echo", crashParams(len(r.submitted)+1, size), time.Second, 7)
		env.Advance(time.Millisecond) // a disk that does not batch writes on a timer
		r.submitted[seq] = &proto.Submit{Call: proto.CallID{User: "u", Session: 1, Seq: seq}, Service: "echo",
			Params: crashParams(int(seq), size), ExecTime: time.Second, ResultSize: 7}
		c.Receive("co", &proto.SubmitAck{Call: r.submitted[seq].Call, MaxSeq: seq})
	}
	deliver := func(seq proto.RPCSeq) {
		r.delivered[seq] = true
		c.Receive("co", &proto.Results{User: "u", Session: 1, Results: []proto.Result{
			{Call: proto.CallID{User: "u", Session: 1, Seq: seq}, Output: []byte("out"), Server: "sv"}}})
	}
	submit(64)
	submit(64 << 10)
	submit(proto.BlobMin)
	deliver(2)
	deliver(3)
	deliver(1)
	c.pollNow() // the watermark passes 1..3
	submit(64 << 10)
	submit(64 << 10)
	deliver(5)
	c.Stop()
	return r
}

// checkClientRecovered restarts a client over what the crash left and
// holds it to the oracle: a synchronization with a coordinator that
// knows nothing resends every call it recovered, each exactly the
// Submit that was logged; what it lost is absent altogether, for the
// application to submit again; no
// payload is left without a header; and — durable — a submission that
// completed is among the recovered unless its result was delivered, and
// its seq is not used again either way.
func checkClientRecovered(t *testing.T, at string, disk node.Disk, r clientCrashRun, durable bool) {
	t.Helper()
	env := nodetest.NewEnv("cli", disk)
	c := New(crashCfg(func(proto.RPCSeq) {}))
	c.Start(env)
	tracked := c.StatsNow().Tracked
	env.Take()
	c.Receive("co", &proto.SyncReply{User: "u", Session: 1})
	recovered := map[proto.RPCSeq]bool{}
	for _, m := range env.Take() {
		if sub, ok := m.(*proto.Submit); ok {
			if recovered[sub.Call.Seq] || !reflect.DeepEqual(sub, r.submitted[sub.Call.Seq]) {
				t.Fatalf("%s: call %d resent twice, or with another Submit than was logged", at, sub.Call.Seq)
			}
			recovered[sub.Call.Seq] = true
		}
	}
	if tracked != len(recovered) {
		t.Fatalf("%s: recovered %d calls, resent %d", at, tracked, len(recovered))
	}
	for _, k := range disk.Keys("blob/") {
		if _, ok := disk.Read(k[len("blob/"):]); !ok {
			t.Fatalf("%s: payload %s survived recovery without a header", at, k)
		}
	}
	next := c.Submit("echo", nil, 0, 0)
	for seq, before := range r.completed {
		if !before || !durable {
			continue
		}
		if !r.delivered[seq] && !recovered[seq] {
			t.Fatalf("%s: call %d completed before the cut, has no result and is not recovered", at, seq)
		}
		if next <= seq {
			t.Fatalf("%s: the next call takes seq %d; call %d completed before the cut", at, next, seq)
		}
	}
	c.Stop()
}

// TestCrashOracle restarts the client at every operation index of the
// session (nodetest.EveryCrash).
func TestCrashOracle(t *testing.T) {
	if r := runClientCrashScenario(nodetest.NewCrashDisk(t, "memory")); len(r.completed) != 5 {
		t.Fatalf("uncut run completed %d submissions of 5", len(r.completed))
	}
	nodetest.EveryCrash(t, runClientCrashScenario,
		func(at string, disk node.Disk, r clientCrashRun, onlyACut bool) {
			checkClientRecovered(t, at, disk, r, onlyACut)
		})
}

// A submission logged whole by a build from before headers existed — a
// 64 KiB payload inline — is recovered and resent like any other.
func TestLegacyInlineLogEntryIsRecovered(t *testing.T) {
	disk := nodetest.NewCrashDisk(t, "memory").Disk
	old := &proto.Submit{Call: proto.CallID{User: "u", Session: 1, Seq: 1}, Service: "echo", Params: crashParams(1, 64<<10)}
	if err := disk.Write("client/submit/"+logKey(1), proto.EncodeMessage(old)); err != nil {
		t.Fatal(err)
	}
	checkClientRecovered(t, "legacy entry", disk, clientCrashRun{
		submitted: map[proto.RPCSeq]*proto.Submit{1: old}, completed: map[proto.RPCSeq]bool{1: true}}, true)
}

// The session owns a call's parameters until the result is delivered,
// and no longer: the entry that outlives a delivered call keeps its key
// — the seq stays used — and none of the caller's bytes.
func TestDeliveredCallGivesItsParamsBack(t *testing.T) {
	w, cli, fc := rig(t, Config{Logging: msglog.BlockingPessimistic, PollPeriod: time.Second})
	params := crashParams(2, 64<<10)
	w.Schedule(0, func() {
		cli.Submit("svc", []byte("never finishes"), time.Second, 1) // holds the watermark at 0
		cli.Submit("svc", params, time.Second, 1)
	})
	w.RunFor(time.Second)
	disk := w.Disk("cli")
	if blob, ok := disk.Read("blob/client/submit/" + logKey(2)); !ok || &blob[0] != &params[0] {
		t.Fatalf("before delivery: the log holds the caller's slice %v", ok && &blob[0] == &params[0])
	}
	fc.finish(2, "r2")
	w.RunFor(3 * time.Second)
	if cli.ResultCount() != 1 {
		t.Fatalf("setup: results = %d", cli.ResultCount())
	}
	if blobs, entries := disk.Keys("blob/"), disk.Keys("client/submit/"); len(blobs) != 0 || len(entries) != 2 {
		t.Fatalf("after delivery: payloads %v, entries %v; want no payload, call 1's entry and the held one", blobs, entries)
	}
	// The caller's again: a race build's checked disk panics if the log
	// still shares it. And a coordinator that lost the calls has call 1
	// resent.
	clear(params)
	fc.jobs = make(map[proto.RPCSeq]*proto.Submit)
	w.Restart("cli")
	w.RunFor(time.Second) // the restart's synchronization
	var seq proto.RPCSeq
	w.Schedule(0, func() { seq = cli.Submit("svc", nil, time.Second, 1) })
	w.RunFor(time.Second)
	if got := slices.Sorted(maps.Keys(fc.jobs)); seq != 3 || !slices.Equal(got, []proto.RPCSeq{1, 3}) {
		t.Fatalf("after restart: next seq %d, coordinator was sent %v; want seq 3 and [1 3], call 2 not resent", seq, got)
	}
}

// TestLogKeyIsTheFmtForm pins logKey to fmt's "%020d": the keys name
// submission log entries a store written by an earlier build may hold,
// and their order is the seqs' order.
func TestLogKeyIsTheFmtForm(t *testing.T) {
	check := func(seq uint64) bool {
		got, want := logKey(proto.RPCSeq(seq)), fmt.Sprintf("%020d", seq)
		if got != want {
			t.Errorf("logKey(%d) = %q, want %q", seq, got, want)
		}
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{0, 1, 9, 10, math.MaxUint32, math.MaxUint64 - 1, math.MaxUint64} {
		check(seq)
	}
	if n := testing.AllocsPerRun(100, func() { _ = logKey(12345) }); n > 1 {
		t.Fatalf("logKey allocates %v times, want at most 1", n)
	}
}
