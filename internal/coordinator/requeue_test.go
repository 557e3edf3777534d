package coordinator

import (
	"testing"
	"time"

	"rpcv/internal/db"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/sim"
)

// wantRequeue checks that co re-issued call(1) exactly once and said
// why: the requeue span's detail and the reason label of
// rpcv_coord_requeues_total, with Stats.Rescheduled still the total.
func wantRequeue(t *testing.T, co *Coordinator, o *obs.Observer, reason string) {
	t.Helper()
	if st := co.StatsNow(); st.Rescheduled != 1 {
		t.Fatalf("rescheduled = %d, want 1", st.Rescheduled)
	}
	node := obs.L("node", string(o.Node()))
	for _, name := range requeueReasonNames {
		want := 0.0
		if name == reason {
			want = 1
		}
		if v, ok := o.Registry().Value("rpcv_coord_requeues_total", node, obs.L("reason", name)); !ok || v != want {
			t.Errorf("rpcv_coord_requeues_total{reason=%q} = %v (registered: %v), want %v", name, v, ok, want)
		}
	}
	if sum := o.Registry().Sum("rpcv_coord_requeues_total"); sum != 1 {
		t.Errorf("requeues summed over reasons = %v, want Stats.Rescheduled = 1", sum)
	}
	var details []string
	for _, sp := range o.Tracer().Dump() {
		if sp.Call == call(1) && sp.Stage == obs.StageRequeue {
			details = append(details, sp.Detail)
		}
	}
	if len(details) != 1 || details[0] != reason {
		t.Errorf("requeue spans say %q, want one saying %q", details, reason)
	}
}

func TestRequeueSaysWhy(t *testing.T) {
	assign := func(w *sim.World, p *peer, co proto.NodeID) {
		p.env.Send(co, submit(1))
		w.RunFor(time.Second)
		p.env.Send(co, &proto.Heartbeat{From: "peer", Role: proto.RoleServer, Capacity: 1, WantWork: true})
		w.RunFor(time.Second)
	}

	t.Run("server-sync", func(t *testing.T) {
		o := obs.New("co")
		w, co, p := rig(t, Config{Obs: o})
		assign(w, p, "co")
		// Past the in-flight grace, the server beating all the while: it
		// is not suspected, it just does not hold the assignment.
		for i := 0; i < 6; i++ {
			p.env.Send("co", &proto.Heartbeat{From: "peer", Role: proto.RoleServer})
			w.RunFor(5 * time.Second)
		}
		p.env.Send("co", &proto.ServerSync{From: "peer"})
		w.RunFor(time.Second)
		wantRequeue(t, co, o, "server-sync")
	})

	t.Run("server-suspected", func(t *testing.T) {
		o := obs.New("co")
		w, co, p := rig(t, Config{Obs: o, HeartbeatTimeout: 10 * time.Second})
		assign(w, p, "co")
		w.RunFor(time.Minute) // silence
		wantRequeue(t, co, o, "server-suspected")
	})

	t.Run("coordinator-suspected", func(t *testing.T) {
		o := obs.New("c2")
		w := sim.NewWorld(sim.Config{Seed: 6})
		cfg := Config{
			Coordinators:     []proto.NodeID{"c1", "c2"},
			DBCost:           db.CostModel{PerOp: time.Microsecond},
			HeartbeatTimeout: 15 * time.Second,
			HeartbeatPeriod:  5 * time.Second,
		}
		c1 := New(cfg)
		cfg.Obs = o
		c2 := New(cfg)
		p := &peer{}
		w.AddNode("c1", c1)
		w.AddNode("c2", c2)
		w.AddNode("peer", p)
		w.Start("c1")
		w.Start("c2")
		w.Start("peer")
		assign(w, p, "c1")
		w.Schedule(0, c1.ReplicateNow) // c2 holds the job as ongoing at its predecessor
		w.RunFor(time.Second)
		w.Crash("c1")
		w.RunFor(time.Minute)
		wantRequeue(t, c2, o, "coordinator-suspected")
	})
}
