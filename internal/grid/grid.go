// Package grid boots named RPC-V nodes on loopback TCP: the one way a
// real cluster is wired, by the chaos harness (internal/conform), the
// quickstart and the tests. It owns the address book, the per-link
// fault proxies and crash/restart; what a node runs is its boot func's
// business, so the package imports no protocol role.
//
// In direct mode a node that (re)starts is handed the address of every
// node up, and every running node is pointed at it. In proxied mode
// (Options.Rules) each directed link crosses its own LinkFaults proxy,
// whose address outlives the restarts of the node behind it.
package grid

import (
	"fmt"
	"sync"

	"rpcv/internal/netmodel"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
)

// Options configures a grid.
type Options struct {
	// Rules, when non-nil, routes every directed link through a proxy
	// that obeys it; nil dials peers directly.
	Rules *netmodel.Rules
	// Logf is the log of the proxies and of every node whose boot func
	// leaves rt.Config.Logf empty; nil silences them.
	Logf func(format string, args ...any)
}

// Grid is a set of named nodes. Node may be called from any goroutine,
// the other methods from one goroutine at a time.
type Grid struct {
	logf   func(string, ...any)
	faults *LinkFaults // nil in direct mode

	mu    sync.Mutex
	nodes map[proto.NodeID]*member
}

type member struct {
	boot func() rt.Config // nil for an attached node
	rtm  *rt.Runtime      // nil while down, and for an attached node
	addr string           // "" while down
}

// New returns an empty grid.
func New(opts Options) *Grid {
	g := &Grid{logf: opts.Logf, nodes: make(map[proto.NodeID]*member)}
	if g.logf == nil {
		g.logf = func(string, ...any) {}
	}
	if opts.Rules != nil {
		g.faults = NewLinkFaults(opts.Rules, g.logf)
	}
	return g
}

// Start boots node id on the rt.Config boot returns, filling in its ID,
// a loopback ListenAddr, its Directory and an empty Logf. Restart calls
// boot again for every later incarnation.
func (g *Grid) Start(id proto.NodeID, boot func() rt.Config) (*rt.Runtime, error) {
	cfg := boot()
	cfg.ID, cfg.ListenAddr = id, "127.0.0.1:0"
	if cfg.Logf == nil {
		cfg.Logf = g.logf
	}
	up := rt.Directory{}
	g.mu.Lock()
	for peer, p := range g.nodes {
		if peer != id && p.addr != "" {
			up[peer] = p.addr
		}
	}
	g.mu.Unlock()
	var err error
	if cfg.Directory, err = g.route(id, up); err != nil {
		return nil, err
	}
	rtm, err := rt.Start(cfg)
	if err != nil {
		return nil, err
	}
	return rtm, g.publish(id, &member{boot: boot, rtm: rtm, addr: rtm.Addr()})
}

// route turns real addresses into the ones node from dials.
func (g *Grid) route(from proto.NodeID, real rt.Directory) (rt.Directory, error) {
	if g.faults == nil {
		return real, nil
	}
	return g.faults.Directory(from, real)
}

// publish records node id as up as m says, and points every other
// running node at it.
func (g *Grid) publish(id proto.NodeID, m *member) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nodes[id] = m
	for peer, p := range g.nodes {
		if peer != id && p.rtm != nil {
			dir, err := g.route(peer, rt.Directory{id: m.addr})
			if err != nil {
				return err
			}
			p.rtm.SetPeer(id, dir[id])
		}
	}
	return nil
}

// Node returns the runtime of node id; nil while it is down, or when it
// is attached.
func (g *Grid) Node(id proto.NodeID) *rt.Runtime {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m := g.nodes[id]; m != nil {
		return m.rtm
	}
	return nil
}

// Kill crash-stops node id, leaving its store for Restart. Killing a
// node that is down does nothing.
func (g *Grid) Kill(id proto.NodeID) {
	g.mu.Lock()
	var rtm *rt.Runtime
	if m := g.nodes[id]; m != nil {
		rtm, m.rtm, m.addr = m.rtm, nil, ""
	}
	g.mu.Unlock()
	if rtm != nil {
		rtm.Close()
	}
}

// Restart boots node id again over its store. A restart is a crash plus
// a start: a node that is up is killed first, so that no two
// incarnations share the store.
func (g *Grid) Restart(id proto.NodeID) error {
	g.mu.Lock()
	var boot func() rt.Config
	if m := g.nodes[id]; m != nil {
		boot = m.boot
	}
	g.mu.Unlock()
	if boot == nil {
		return fmt.Errorf("grid: node %s was not started by the grid", id)
	}
	g.Kill(id)
	_, err := g.Start(id, boot)
	return err
}

// Attach adds node id, listening at addr outside the grid (a gridrpc
// session), and points every running node at it.
func (g *Grid) Attach(id proto.NodeID, addr string) error {
	return g.publish(id, &member{addr: addr})
}

// Close kills every node and closes the proxies.
func (g *Grid) Close() {
	g.mu.Lock()
	ids := make([]proto.NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	g.mu.Unlock()
	for _, id := range ids {
		g.Kill(id)
	}
	if g.faults != nil {
		g.faults.Close()
	}
}
