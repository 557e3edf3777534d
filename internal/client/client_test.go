package client

import (
	"slices"
	"testing"
	"time"

	"rpcv/internal/msglog"
	"rpcv/internal/node"
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
		rep := &proto.SyncReply{User: m.User, Session: m.Session, MaxSeq: f.maxSeq()}
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

func TestGCNowDropsDeliveredOnly(t *testing.T) {
	w, cli, fc := rig(t, Config{Logging: msglog.BlockingPessimistic, PollPeriod: time.Second})
	w.Schedule(0, func() {
		cli.Submit("svc", []byte("a"), time.Second, 1)
		cli.Submit("svc", []byte("b"), time.Second, 1)
		cli.Submit("svc", []byte("c"), time.Second, 1)
	})
	w.RunFor(time.Second)
	fc.finish(1, "r1")
	fc.finish(3, "r3")
	w.RunFor(3 * time.Second)
	if cli.ResultCount() != 2 {
		t.Fatalf("setup: results = %d", cli.ResultCount())
	}
	var removed int
	w.Schedule(0, func() { removed = cli.GCNow() })
	w.RunFor(time.Millisecond)
	if removed != 2 {
		t.Fatalf("GC removed %d entries, want 2", removed)
	}
	if n := cli.StatsNow().LoggedSeqs; n != 1 {
		t.Fatalf("log holds %d entries after GC, want 1 (the undelivered call)", n)
	}
	// The undelivered call can still be resent from the surviving log.
	fc.jobs = make(map[proto.RPCSeq]*proto.Submit)
	w.Schedule(0, cli.SyncNow)
	w.RunFor(time.Second)
	if _, ok := fc.jobs[2]; !ok {
		t.Fatal("undelivered call 2 not resendable after GC")
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

	// A restart forgets the results, so the watermark starts over and
	// the coordinator sends everything again.
	before := len(fc.polls)
	w.Restart("cli")
	w.RunFor(3 * time.Second)
	wantPoll(t, fc.polls[before], 0)
	wantPoll(t, fc.lastPoll(t), 5)
	if cli.ResultCount() != 5 {
		t.Fatalf("results after restart = %d, want 5", cli.ResultCount())
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
