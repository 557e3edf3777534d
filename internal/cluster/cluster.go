// Package cluster assembles complete RPC-V deployments inside the
// discrete-event simulator: N coordinators, M servers and K clients on
// a chosen network model, with uniform or per-node configuration. It is
// the shared harness of the integration tests, the benchmarks and every
// figure-regeneration experiment.
package cluster

import (
	"fmt"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/coordinator"
	"rpcv/internal/db"
	"rpcv/internal/detector"
	"rpcv/internal/msglog"
	"rpcv/internal/netmodel"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/server"
	"rpcv/internal/sim"
)

// Config describes a deployment.
type Config struct {
	Seed int64
	// Coordinators is the number of coordinators on the ring.
	Coordinators int
	Servers      int
	Clients      int

	// Net selects the network model; nil means netmodel.Confined(Seed).
	Net *netmodel.Net

	// Logging is the client message-logging strategy.
	Logging msglog.Strategy
	// DBCost is the coordinators' modelled database cost; zero means
	// db.ConfinedCost(). This builder is where the paper's cost models
	// enter: coordinator.Config.DBCost has no default of its own, and
	// the clients' log disk is always msglog.IDEDisk().
	DBCost db.CostModel

	// HeartbeatPeriod and SuspicionTimeout follow the paper's 5 s/30 s
	// defaults when zero.
	HeartbeatPeriod  time.Duration
	SuspicionTimeout time.Duration

	// ReplicationPeriod for coordinators; zero disables periodic
	// replication.
	ReplicationPeriod time.Duration

	// PollPeriod is the clients' result-pull period (default 1 s).
	PollPeriod time.Duration

	// AckResyncTimeout is the clients' unacked-submission resync check;
	// zero keeps the client default, negative disables it (benchmarks
	// measuring raw submission cost).
	AckResyncTimeout time.Duration

	// MaxTasksPerAck caps assignments per heartbeat reply (default 4).
	MaxTasksPerAck int

	// Parallelism is each server's concurrent task capacity (default 1).
	Parallelism int

	// Services registered on every server.
	Services map[string]server.Service

	// ReplicateParamsLimit overrides the coordinators' archive
	// threshold (bytes); zero keeps the coordinator default (64 KiB).
	ReplicateParamsLimit int

	// OnSubmitComplete, when non-nil, receives every client submission
	// completion (figure 4's measured quantity).
	OnSubmitComplete func(clientID proto.NodeID, seq proto.RPCSeq, issued, completed time.Time)

	// Trace receives simulator trace output when non-nil.
	Trace sim.TraceFunc

	// Obs, when non-nil, is a metrics registry shared by every node of
	// the deployment (each node records under a node="<id>" label and
	// keeps a private span ring). Experiments read grid-wide aggregates
	// from it instead of polling per-node counters.
	Obs *obs.Registry
}

// Cluster is a running deployment handle.
type Cluster struct {
	World *sim.World
	Net   *netmodel.Net

	CoordinatorIDs []proto.NodeID
	ServerIDs      []proto.NodeID
	ClientIDs      []proto.NodeID

	Coordinators map[proto.NodeID]*coordinator.Coordinator
	Servers      map[proto.NodeID]*server.Server
	Clients      map[proto.NodeID]*client.Client

	// Obs is the deployment's shared metrics registry (nil when the
	// deployment runs without observability).
	Obs *obs.Registry

	// FinishedAt records, per call, the virtual time its result first
	// reached any coordinator (for completed-task time series).
	FinishedAt map[proto.CallID]time.Time
	// ResultAt records when each call's result reached a client.
	ResultAt map[proto.CallID]time.Time
	// FinishedPerCoord counts first-finishes per coordinator.
	FinishedPerCoord map[proto.NodeID]int
}

// CoordinatorID returns the i-th coordinator's node ID.
func CoordinatorID(i int) proto.NodeID { return proto.NodeID(fmt.Sprintf("coord-%02d", i)) }

// ServerID returns the i-th server's node ID.
func ServerID(i int) proto.NodeID { return proto.NodeID(fmt.Sprintf("server-%03d", i)) }

// ClientID returns the i-th client's node ID.
func ClientID(i int) proto.NodeID { return proto.NodeID(fmt.Sprintf("client-%02d", i)) }

// New builds and boots a deployment. All nodes are started; the virtual
// clock is at sim.Epoch.
func New(cfg Config) *Cluster {
	if cfg.Coordinators <= 0 {
		cfg.Coordinators = 1
	}
	if cfg.Net == nil {
		cfg.Net = netmodel.Confined(cfg.Seed)
	}
	if cfg.HeartbeatPeriod <= 0 {
		cfg.HeartbeatPeriod = detector.DefaultPeriod
	}
	if cfg.SuspicionTimeout <= 0 {
		cfg.SuspicionTimeout = detector.DefaultTimeout
	}
	if cfg.DBCost == (db.CostModel{}) {
		cfg.DBCost = db.ConfinedCost()
	}

	cl := &Cluster{
		Net:              cfg.Net,
		Obs:              cfg.Obs,
		Coordinators:     make(map[proto.NodeID]*coordinator.Coordinator),
		Servers:          make(map[proto.NodeID]*server.Server),
		Clients:          make(map[proto.NodeID]*client.Client),
		FinishedAt:       make(map[proto.CallID]time.Time),
		ResultAt:         make(map[proto.CallID]time.Time),
		FinishedPerCoord: make(map[proto.NodeID]int),
	}
	cl.World = sim.NewWorld(sim.Config{Seed: cfg.Seed, Net: cfg.Net, Trace: cfg.Trace})

	var coordIDs []proto.NodeID
	for i := 0; i < cfg.Coordinators; i++ {
		coordIDs = append(coordIDs, CoordinatorID(i))
	}
	cl.CoordinatorIDs = coordIDs

	for i := 0; i < cfg.Coordinators; i++ {
		id := CoordinatorID(i)
		co := coordinator.New(coordinator.Config{
			Coordinators:         coordIDs,
			ReplicationPeriod:    cfg.ReplicationPeriod,
			HeartbeatTimeout:     cfg.SuspicionTimeout,
			DBCost:               cfg.DBCost,
			MaxTasksPerAck:       cfg.MaxTasksPerAck,
			ReplicateParamsLimit: cfg.ReplicateParamsLimit,
			OnJobFinished: func(call proto.CallID, at time.Time) {
				if _, ok := cl.FinishedAt[call]; !ok {
					cl.FinishedAt[call] = at
				}
				cl.FinishedPerCoord[id]++
			},
			Obs: obsFor(id, cfg.Obs),
			// The simulated figures reproduce the protocol the paper
			// measured, in which a pull is answered once.
			PullOnly: true,
		})
		cl.Coordinators[id] = co
		cl.World.AddNode(id, co)
	}

	for i := 0; i < cfg.Servers; i++ {
		id := ServerID(i)
		sv := server.New(server.Config{
			Coordinators:     coordIDs,
			HeartbeatPeriod:  cfg.HeartbeatPeriod,
			SuspicionTimeout: cfg.SuspicionTimeout,
			Parallelism:      cfg.Parallelism,
			Services:         cfg.Services,
			Obs:              obsFor(id, cfg.Obs),
		})
		cl.ServerIDs = append(cl.ServerIDs, id)
		cl.Servers[id] = sv
		cl.World.AddNode(id, sv)
	}

	for i := 0; i < cfg.Clients; i++ {
		id := ClientID(i)
		ccfg := client.Config{
			User:             proto.UserID(fmt.Sprintf("user-%02d", i)),
			Session:          1,
			Coordinators:     coordIDs,
			PollPeriod:       cfg.PollPeriod,
			SuspicionTimeout: cfg.SuspicionTimeout,
			AckResyncTimeout: cfg.AckResyncTimeout,
			Logging:          cfg.Logging,
			OnResult: func(res proto.Result, at time.Time) {
				if _, ok := cl.ResultAt[res.Call]; !ok {
					cl.ResultAt[res.Call] = at
				}
			},
			Obs: obsFor(id, cfg.Obs),
		}
		if hook := cfg.OnSubmitComplete; hook != nil {
			cid := id
			ccfg.OnSubmitComplete = func(seq proto.RPCSeq, issued, completed time.Time) {
				hook(cid, seq, issued, completed)
			}
		}
		ci := client.New(ccfg)
		cl.ClientIDs = append(cl.ClientIDs, id)
		cl.Clients[id] = ci
		cl.World.AddNode(id, ci)
	}

	// Boot order: coordinators first, then servers, then clients, so
	// initial syncs find a listening middle tier.
	for _, id := range coordIDs {
		cl.World.Start(id)
	}
	for _, id := range cl.ServerIDs {
		cl.World.Start(id)
	}
	for _, id := range cl.ClientIDs {
		cl.World.Start(id)
	}
	return cl
}

// obsFor wraps the shared registry into a per-node Observer; nil
// registry keeps instrumentation off.
func obsFor(id proto.NodeID, reg *obs.Registry) *obs.Observer {
	if reg == nil {
		return nil
	}
	return obs.NewWith(id, reg)
}

// Client returns the i-th client handle.
func (c *Cluster) Client(i int) *client.Client { return c.Clients[ClientID(i)] }

// Coordinator returns the i-th coordinator handle.
func (c *Cluster) Coordinator(i int) *coordinator.Coordinator {
	return c.Coordinators[CoordinatorID(i)]
}

// Server returns the i-th server handle.
func (c *Cluster) Server(i int) *server.Server { return c.Servers[ServerID(i)] }

// Submit schedules a submission on client i's event loop immediately.
func (c *Cluster) Submit(i int, service string, params []byte, execTime time.Duration, resultSize int) {
	cli := c.Client(i)
	c.World.Schedule(0, func() { cli.Submit(service, params, execTime, resultSize) })
}

// SubmitBatch schedules n identical submissions on client i.
func (c *Cluster) SubmitBatch(i, n int, service string, paramSize int, execTime time.Duration, resultSize int) {
	cli := c.Client(i)
	c.World.Schedule(0, func() {
		params := make([]byte, paramSize)
		for j := 0; j < n; j++ {
			cli.Submit(service, params, execTime, resultSize)
		}
	})
}

// RunUntilResults advances the world until client i has at least n
// results or the deadline elapses; reports success.
func (c *Cluster) RunUntilResults(i, n int, timeout time.Duration) bool {
	cli := c.Client(i)
	deadline := c.World.Now().Add(timeout)
	return c.World.RunUntil(func() bool { return cli.ResultCount() >= n }, deadline)
}
