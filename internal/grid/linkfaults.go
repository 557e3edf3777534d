package grid

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"rpcv/internal/netmodel"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
)

// LinkFaults imposes a netmodel.Rules fault schedule — directed link
// blocks and group partitions — onto a real-TCP loopback grid, so the
// same rule set that drives the discrete-event simulator drives live
// clusters. One tiny TCP proxy per *directed* link: node "from"
// reaches node "to" through the (from, to) proxy, so blocking from->to
// silences that direction while to->from (its own proxy) keeps
// flowing. This matches the runtime's transport shape, where pooled
// connections are unidirectional (the sender dials and writes, the
// receiver only reads).
//
// Block semantics are chosen to keep framing intact across heals: a
// connection is only ever forwarded from its first byte. While a link
// is blocked, established connections are severed and new inbound
// connections are black-holed — accepted (TCP handshake succeeds,
// the peer looks reachable) but no byte is ever forwarded, which is
// the asymmetric-partition signature: you can connect, you cannot be
// heard. On heal the black-holed connections are closed so the sender
// redials and the fresh connection forwards cleanly.
//
// Targets are registered by node, not baked into the proxy: after a
// crash-restart changes a node's port, SetTarget repoints every proxy
// for that node while the proxy addresses handed to peers stay stable.
type LinkFaults struct {
	rules *netmodel.Rules
	logf  func(format string, args ...any)

	mu      sync.Mutex
	targets map[proto.NodeID]string
	links   map[linkKey]*linkProxy
	closed  bool
}

type linkKey struct{ from, to proto.NodeID }

// NewLinkFaults builds a fault plane over rules. A nil rules gets a
// fresh (permissive) rule set; nil logf silences tracing.
func NewLinkFaults(rules *netmodel.Rules, logf func(string, ...any)) *LinkFaults {
	if rules == nil {
		rules = netmodel.NewRules()
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &LinkFaults{
		rules:   rules,
		logf:    logf,
		targets: make(map[proto.NodeID]string),
		links:   make(map[linkKey]*linkProxy),
	}
}

// SetTarget registers (or repoints, after a restart) node id's real
// listen address. Existing proxied connections to a stale address die
// on their next write and the sender's redial lands on the new one.
func (f *LinkFaults) SetTarget(id proto.NodeID, addr string) {
	f.mu.Lock()
	f.targets[id] = addr
	f.mu.Unlock()
}

// Addr returns the stable proxy address node from should dial to reach
// node to, creating the per-link proxy on first use. The target may be
// registered before or after (dials before SetTarget fail and are
// retried by the transport, as any down peer is).
func (f *LinkFaults) Addr(from, to proto.NodeID) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return "", fmt.Errorf("grid: link faults closed")
	}
	k := linkKey{from, to}
	if p, ok := f.links[k]; ok {
		return p.ln.Addr().String(), nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("grid: link proxy %s->%s: %w", from, to, err)
	}
	p := &linkProxy{f: f, from: from, to: to, ln: ln, conns: make(map[net.Conn]struct{})}
	f.links[k] = p
	go p.accept()
	return ln.Addr().String(), nil
}

// Directory rewrites a real directory into the one node from should
// use: every entry routed through this fault plane's (from, to) proxy,
// with the real addresses registered as targets. It is a proxied
// grid's address book (Grid.route).
func (f *LinkFaults) Directory(from proto.NodeID, real rt.Directory) (rt.Directory, error) {
	out := make(rt.Directory, len(real))
	for to, addr := range real {
		f.SetTarget(to, addr)
		pa, err := f.Addr(from, to)
		if err != nil {
			return nil, err
		}
		out[to] = pa
	}
	return out, nil
}

// Close tears down every proxy and connection.
func (f *LinkFaults) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	links := make([]*linkProxy, 0, len(f.links))
	for _, p := range f.links {
		links = append(links, p)
	}
	f.mu.Unlock()
	for _, p := range links {
		p.close()
	}
}

func (f *LinkFaults) target(id proto.NodeID) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	a, ok := f.targets[id]
	return a, ok
}

// rulePollPeriod bounds how long after a Block/Heal a live connection
// keeps its old behavior: each pump iteration re-checks the rules at
// least this often.
const rulePollPeriod = 25 * time.Millisecond

type linkProxy struct {
	f    *LinkFaults
	from proto.NodeID
	to   proto.NodeID
	ln   net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func (p *linkProxy) accept() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !p.track(conn) {
			_ = conn.Close() // deliberate: proxy shutting down
			return
		}
		go p.pump(conn)
	}
}

func (p *linkProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *linkProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *linkProxy) close() {
	p.mu.Lock()
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	_ = p.ln.Close() // deliberate: shutdown; accept loop exits on error
	for _, c := range conns {
		_ = c.Close() // deliberate: shutdown
	}
}

// pump serves one inbound connection from the sender side of the link.
// Blocked at accept time: black-hole (read and discard until heal,
// then close so the sender redials). Open: forward byte-for-byte to
// the target, severing the moment the link blocks or the target
// changes underneath us.
func (p *linkProxy) pump(up net.Conn) {
	defer p.untrack(up)
	defer func() { _ = up.Close() }() // deliberate: pump teardown

	if p.f.rules.Blocked(p.from, p.to) {
		p.f.logf("linkfaults: %s->%s blocked at connect; black-holing", p.from, p.to)
		p.blackhole(up)
		return
	}

	addr, ok := p.f.target(p.to)
	if !ok {
		p.f.logf("linkfaults: %s->%s: no target registered", p.from, p.to)
		return
	}
	down, err := net.Dial("tcp", addr)
	if err != nil {
		p.f.logf("linkfaults: %s->%s dial %s: %v", p.from, p.to, addr, err)
		return
	}
	if !p.track(down) {
		_ = down.Close() // deliberate: proxy shutting down
		return
	}
	defer p.untrack(down)
	defer func() { _ = down.Close() }() // deliberate: pump teardown

	// Reverse direction (the runtime's pooled connections are
	// unidirectional, but TCP itself may move bytes back): plain copy,
	// ending when either side closes.
	go func() {
		_, _ = io.Copy(up, down) // deliberate: reverse-path close is the signal
		_ = up.Close()           // deliberate: unblock the forward read
	}()

	buf := make([]byte, 32*1024)
	for {
		if p.f.rules.Blocked(p.from, p.to) {
			// Sever: the sender sees a dead connection and redials;
			// the redial is black-holed until heal.
			p.f.logf("linkfaults: %s->%s blocked; severing", p.from, p.to)
			return
		}
		if cur, _ := p.f.target(p.to); cur != addr {
			p.f.logf("linkfaults: %s->%s retargeted; severing", p.from, p.to)
			return
		}
		_ = up.SetReadDeadline(time.Now().Add(rulePollPeriod)) // deliberate: poll tick
		n, err := up.Read(buf)
		if n > 0 {
			// Re-check after the (possibly long) read: bytes that
			// arrived after the block was set must not leak through.
			if p.f.rules.Blocked(p.from, p.to) {
				p.f.logf("linkfaults: %s->%s blocked; severing", p.from, p.to)
				return
			}
			if _, werr := down.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue // poll tick: re-check rules
			}
			return
		}
	}
}

// blackhole consumes and discards the connection until the link heals
// (then closes it, prompting a clean redial) or the proxy closes.
func (p *linkProxy) blackhole(up net.Conn) {
	buf := make([]byte, 32*1024)
	for {
		if !p.f.rules.Blocked(p.from, p.to) {
			p.f.logf("linkfaults: %s->%s healed; dropping black-holed conn", p.from, p.to)
			return
		}
		_ = up.SetReadDeadline(time.Now().Add(rulePollPeriod)) // deliberate: poll tick
		if _, err := up.Read(buf); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
	}
}
