package rt

import (
	"sync"
	"testing"
	"time"

	"rpcv/internal/coordinator"
	"rpcv/internal/node"
	"rpcv/internal/proto"
)

// collector records everything it receives (a scripted server stand-in
// for real-TCP scheduling tests).
type collector struct {
	env  node.Env
	mu   sync.Mutex
	acks []*proto.HeartbeatAck
}

func (c *collector) Start(env node.Env) { c.env = env }
func (c *collector) Stop()              {}
func (c *collector) Receive(_ proto.NodeID, m proto.Message) {
	if ack, ok := m.(*proto.HeartbeatAck); ok {
		c.mu.Lock()
		c.acks = append(c.acks, ack)
		c.mu.Unlock()
	}
}

func (c *collector) tasks() []proto.TaskAssignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []proto.TaskAssignment
	for _, a := range c.acks {
		out = append(out, a.Tasks...)
	}
	return out
}

// TestDeadlinePolicyOverTCP hosts a deadline-policy coordinator on the
// real runtime and checks that pending work comes back
// earliest-deadline-first — the sched engine wired through rt exactly
// as cmd/rpcv-coordinator's -policy flag does it.
func TestDeadlinePolicyOverTCP(t *testing.T) {
	co := coordinator.New(coordinator.Config{
		Coordinators: []proto.NodeID{"co"},
		Policy:       "deadline",
	})
	rc, err := Start(Config{ID: "co", ListenAddr: "127.0.0.1:0", Handler: co, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	sv := &collector{}
	rs, err := Start(Config{ID: "sv", ListenAddr: "127.0.0.1:0", Handler: sv, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rc.SetPeer("sv", rs.Addr())
	rs.SetPeer("co", rc.Addr())

	submit := func(seq int, deadline time.Duration) {
		m := &proto.Submit{
			Call:     proto.CallID{User: "u", Session: 1, Seq: proto.RPCSeq(seq)},
			Service:  "synthetic",
			Params:   []byte("p"),
			ExecTime: time.Second,
			Deadline: deadline,
		}
		rs.Do(func() { sv.env.Send("co", m) })
	}
	submit(1, time.Hour)
	submit(2, time.Minute)
	submit(3, 10*time.Minute)

	// Give the submissions time to register, then pull all three.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rs.Do(func() {
			sv.env.Send("co", &proto.Heartbeat{From: "sv", Role: proto.RoleServer, Capacity: 10, WantWork: true})
		})
		if len(sv.tasks()) >= 3 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	got := sv.tasks()
	if len(got) < 3 {
		t.Fatalf("got %d assignments, want 3", len(got))
	}
	want := []proto.RPCSeq{2, 3, 1}
	for i, w := range want {
		if got[i].Task.Call.Seq != w {
			t.Fatalf("assignment order %v, want EDF %v", got, want)
		}
	}
}
