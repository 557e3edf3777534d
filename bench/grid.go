package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rpcv/internal/coordinator"
	"rpcv/internal/db"
	"rpcv/internal/gridrpc"
	"rpcv/internal/msglog"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/server"
)

// The fixed grid settings of every workload (README, "Fixed settings").
const (
	beatPeriod     = 20 * time.Millisecond // server heartbeat = client poll
	suspectTimeout = 250 * time.Millisecond
	nSessions      = 2
	coordID        = proto.NodeID("co")
)

func quiet(string, ...any) {}

// gridSpec is what differs between workloads: the server pool and the
// service it runs.
type gridSpec struct {
	servers     int
	parallelism int
	services    map[string]server.Service
	durable     bool // coordinator on the WAL; otherwise on the memory store
}

// counters are the always-on public Stats of the nodes whose runtime
// the bench owns (coordinator and servers; a gridrpc.Session keeps its
// runtime private, so only its client.Stats are read), summed over
// nodes and over incarnations.
type counters [nCounters]int64

const (
	cSent = iota // rt.TransportStats
	cFlushes
	cDropped
	cRedials
	cCoTasks // coordinator rt.LoopStats
	cSubmits // coordinator.Stats
	cDupResults
	cRescheds
	cExecuted // server.Stats
	cDedup
	cSyncs // client.Stats
	cFailovers
	nCounters
)

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

type serverNode struct {
	id  proto.NodeID
	sv  *server.Server
	rtm *rt.Runtime // nil while the server is down
}

// grid is one real loopback-TCP grid hosted in this process:
// 1 coordinator, spec.servers volatile servers and nSessions
// gridrpc sessions. mu orders the fault schedule's kills and restarts
// against the counter sampler.
type grid struct {
	spec  gridSpec
	dir   string
	plane *obsPlane // nil: every Config.Obs stays nil (untraced)

	mu       sync.Mutex
	co       *coordinator.Coordinator
	rco      *rt.Runtime // nil while the coordinator is down
	coAddr   string
	servers  []*serverNode
	sessions []*gridrpc.Session
	retired  counters // counters of incarnations already closed
}

// bootGrid starts the coordinator, the servers and the sessions under a
// fresh directory inside tmpRoot, idling for pause between the servers
// and the sessions. firstStart is taken just before the first rt.Start
// (the origin of setup_s).
func bootGrid(spec gridSpec, tmpRoot string, plane *obsPlane, pause time.Duration) (g *grid, firstStart time.Time, err error) {
	dir, err := os.MkdirTemp(tmpRoot, "grid-")
	if err != nil {
		return nil, time.Time{}, err
	}
	g = &grid{spec: spec, dir: dir, plane: plane, coAddr: "127.0.0.1:0"}
	firstStart = time.Now()
	if err := g.startCoordinator(); err != nil {
		g.close()
		return nil, firstStart, err
	}
	g.coAddr = g.rco.Addr() // restarts reuse the port the clients know
	for i := 0; i < spec.servers; i++ {
		g.servers = append(g.servers, &serverNode{id: proto.NodeID(fmt.Sprintf("sv%d", i))})
		if err := g.startServer(i); err != nil {
			g.close()
			return nil, firstStart, err
		}
	}
	time.Sleep(pause)
	for i := 0; i < nSessions; i++ {
		user, session := sessionIdent(i)
		s, err := gridrpc.Dial(gridrpc.Config{
			User:             user,
			Session:          session,
			Coordinators:     map[string]string{string(coordID): g.coAddr},
			Logging:          msglog.NonBlockingPessimistic,
			PollPeriod:       beatPeriod,
			SuspicionTimeout: suspectTimeout,
			Obs:              plane.observer(clientNodeID(i)),
		})
		if err != nil {
			g.close()
			return nil, firstStart, fmt.Errorf("dial session %d: %w", i, err)
		}
		g.sessions = append(g.sessions, s)
		g.rco.SetPeer(clientNodeID(i), s.Addr())
	}
	return g, firstStart, nil
}

// sessionIdent is session i's (user, session): u0/1 and u1/2.
func sessionIdent(i int) (string, uint64) { return fmt.Sprintf("u%d", i), uint64(i + 1) }

// clientNodeID is the node ID gridrpc.Dial derives for session i.
func clientNodeID(i int) proto.NodeID {
	user, session := sessionIdent(i)
	return proto.NodeID(fmt.Sprintf("client-%s-%d", user, session))
}

// startCoordinator boots a coordinator incarnation; a durable one opens
// the grid's WAL directory, so a restart recovers the job table from it.
// Caller holds mu or is single-threaded.
func (g *grid) startCoordinator() error {
	o := g.plane.observer(coordID)
	co := coordinator.New(coordinator.Config{
		Coordinators:     []proto.NodeID{coordID},
		HeartbeatPeriod:  beatPeriod,
		HeartbeatTimeout: suspectTimeout,
		// Zero would mean the simulator's 3 ms MySQL sleep per statement;
		// the benchmark measures the program, not that constant.
		DBCost: db.CostModel{PerOp: time.Nanosecond},
		Policy: "fcfs",
		Obs:    o,
	})
	dir := rt.Directory{}
	for _, sv := range g.servers {
		if sv.rtm != nil {
			dir[sv.id] = sv.rtm.Addr()
		}
	}
	for i, s := range g.sessions {
		dir[clientNodeID(i)] = s.Addr()
	}
	cfg := rt.Config{
		ID: coordID, ListenAddr: g.coAddr, Handler: co, Directory: dir,
		Loops: 1, Logf: quiet, Obs: o,
	}
	if g.spec.durable {
		cfg.DiskDir, cfg.Store = filepath.Join(g.dir, "co"), "wal"
	}
	rco, err := rt.Start(cfg)
	if err != nil {
		return fmt.Errorf("start coordinator: %w", err)
	}
	g.co, g.rco = co, rco
	return nil
}

// startServer boots a volatile incarnation of server i on a fresh port
// and tells the coordinator where it lives.
func (g *grid) startServer(i int) error {
	sv := g.servers[i]
	o := g.plane.observer(sv.id)
	h := server.New(server.Config{
		Coordinators:     []proto.NodeID{coordID},
		HeartbeatPeriod:  beatPeriod,
		SuspicionTimeout: suspectTimeout,
		Parallelism:      g.spec.parallelism,
		Services:         g.spec.services,
		Obs:              o,
	})
	rtm, err := rt.Start(rt.Config{
		ID: sv.id, ListenAddr: "127.0.0.1:0", Handler: h,
		Directory: rt.Directory{coordID: g.coAddr}, Logf: quiet, Obs: o,
	})
	if err != nil {
		return fmt.Errorf("start %s: %w", sv.id, err)
	}
	sv.sv, sv.rtm = h, rtm
	if g.rco != nil {
		g.rco.SetPeer(sv.id, rtm.Addr())
	}
	return nil
}

// transportCounters reads one runtime's transport counters.
func transportCounters(r *rt.Runtime) counters {
	var c counters
	ts := r.TransportStats()
	c[cSent], c[cFlushes] = int64(ts.Sent), int64(ts.Flushes)
	c[cDropped], c[cRedials] = int64(ts.Dropped), int64(ts.Redials)
	return c
}

// coordinatorCounters reads the live coordinator incarnation.
func (g *grid) coordinatorCounters() counters {
	if g.rco == nil {
		return counters{}
	}
	c := transportCounters(g.rco)
	for _, ls := range g.rco.LoopStats() {
		c[cCoTasks] += int64(ls.Tasks)
	}
	g.rco.Do(func() {
		st := g.co.StatsNow()
		c[cSubmits], c[cDupResults], c[cRescheds] = int64(st.SubmitsReceived), int64(st.DupResults), int64(st.Rescheduled)
	})
	return c
}

func (g *grid) serverCounters(sv *serverNode) counters {
	if sv.rtm == nil {
		return counters{}
	}
	c := transportCounters(sv.rtm)
	sv.rtm.Do(func() {
		st := sv.sv.StatsNow()
		c[cExecuted], c[cDedup] = int64(st.Executed), int64(st.Dedup)
	})
	return c
}

// snapshot sums the counters of every live and retired incarnation.
func (g *grid) snapshot() counters {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.retired
	c.add(g.coordinatorCounters())
	for _, sv := range g.servers {
		c.add(g.serverCounters(sv))
	}
	for _, s := range g.sessions {
		st := s.Stats()
		c[cSyncs] += int64(st.Syncs)
		c[cFailovers] += int64(st.Failovers)
	}
	return c
}

// mailboxDepth reads the coordinator loop's queued-task depth (0 while
// it is down).
func (g *grid) mailboxDepth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rco == nil {
		return 0
	}
	depth := 0
	for _, ls := range g.rco.LoopStats() {
		depth += ls.MailboxDepth
	}
	return depth
}

// killServer closes server i's runtime: running tasks and unacked
// results die with it (volatile node).
func (g *grid) killServer(i int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	sv := g.servers[i]
	if sv.rtm == nil {
		return
	}
	g.retired.add(g.serverCounters(sv))
	sv.rtm.Close()
	sv.rtm = nil
}

func (g *grid) restartServer(i int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.servers[i].rtm != nil {
		return nil
	}
	return g.startServer(i)
}

// killCoordinator closes the coordinator; its WAL directory stays.
func (g *grid) killCoordinator() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rco == nil {
		return
	}
	g.retired.add(g.coordinatorCounters())
	g.plane.retireNode(coordID)
	g.rco.Close()
	g.rco = nil
}

func (g *grid) restartCoordinator() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rco != nil {
		return nil
	}
	return g.startCoordinator()
}

// close stops every node and removes the grid's directory.
func (g *grid) close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, s := range g.sessions {
		s.Close()
	}
	for _, sv := range g.servers {
		if sv.rtm != nil {
			sv.rtm.Close()
			sv.rtm = nil
		}
	}
	if g.rco != nil {
		g.rco.Close()
		g.rco = nil
	}
	_ = os.RemoveAll(g.dir) // scratch data; the parent temp root is removed at exit too
}
