// Package fleet is the flight recorder over the per-node admin
// endpoints every daemon serves (/metrics, /healthz, /statusz, /tracez,
// pprof). A Monitor polls each node's liveness probe and keeps the raw
// exposition of its last healthy round; when a node goes down, or on
// demand, it captures a post-mortem bundle — every node's span ring
// assembled into end-to-end call timelines, each node's last
// exposition, status snapshots and pprof profiles — into a timestamped
// directory.
//
// cmd/rpcv-mon is the daemon built on it; internal/conform captures
// one bundle over an in-process source when a cell fails.
package fleet

import (
	"sort"
	"sync"
	"time"
)

const (
	// downAfter is how many rounds in a row a node must fail its probe
	// before it counts as down: one failure is a blip, a streak is a
	// death.
	downAfter = 2
	// captureSpacing is the least time between automatic captures, so
	// a flapping fleet does not fill the disk.
	captureSpacing = 30 * time.Second
)

// Config parameterizes a Monitor.
type Config struct {
	// Sources are the nodes to watch.
	Sources []Source
	// Interval is the polling period for Start (default 2s); every
	// request to a node is bounded by half of it.
	Interval time.Duration
	// BundleDir is where bundles land, one subdirectory each
	// (required).
	BundleDir string
	// Logf receives recorder trace output; nil silences it.
	Logf func(format string, args ...any)
}

// nodeState is what the monitor remembers about one node.
type nodeState struct {
	src   Source
	fails int    // rounds in a row the node failed its probe
	last  []byte // exposition from the last healthy round
}

// Monitor is the flight recorder.
type Monitor struct {
	cfg     Config
	timeout time.Duration
	nodes   []*nodeState // by ID; the slice and each src never change

	mu          sync.Mutex // guards nodeState.fails/last and lastCapture
	lastCapture time.Time

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New builds a Monitor over cfg.Sources. Call Poll for synchronous
// rounds (tests) or Start for a wall-clock loop.
func New(cfg Config) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	m := &Monitor{cfg: cfg, timeout: cfg.Interval / 2, stop: make(chan struct{})}
	for _, src := range cfg.Sources {
		m.nodes = append(m.nodes, &nodeState{src: src})
	}
	sort.Slice(m.nodes, func(i, j int) bool { return m.nodes[i].src.ID() < m.nodes[j].src.ID() })
	return m
}

// Poll runs one round: scrape every source concurrently, and capture a
// bundle when a node has just failed downAfter rounds in a row, unless
// the last automatic capture is less than captureSpacing before at. It
// returns the captured bundle's directory, or "".
func (m *Monitor) Poll(at time.Time) string {
	raws := make([][]byte, len(m.nodes))
	errs := make([]error, len(m.nodes))
	var wg sync.WaitGroup
	for i, st := range m.nodes {
		wg.Add(1)
		go func(i int, src Source) {
			defer wg.Done()
			raws[i], errs[i] = src.Scrape(m.timeout)
		}(i, st.src)
	}
	wg.Wait()

	reason := ""
	m.mu.Lock()
	for i, st := range m.nodes {
		if errs[i] == nil {
			st.fails, st.last = 0, raws[i]
			continue
		}
		if st.fails++; st.fails != downAfter {
			continue
		}
		m.cfg.Logf("fleet: node %s down: %v", st.src.ID(), errs[i])
		if reason == "" && (m.lastCapture.IsZero() || at.Sub(m.lastCapture) >= captureSpacing) {
			reason = "node-" + string(st.src.ID()) + "-down"
			m.lastCapture = at
		}
	}
	m.mu.Unlock()

	if reason == "" {
		return ""
	}
	dir, err := m.CaptureBundle(reason)
	if err != nil {
		m.cfg.Logf("fleet: bundle capture (%s): %v", reason, err)
		return ""
	}
	m.cfg.Logf("fleet: captured post-mortem bundle %s", dir)
	return dir
}

// Start launches the wall-clock loop (one Poll per Interval, the first
// at once). Close stops it.
func (m *Monitor) Start() {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(m.cfg.Interval)
		defer t.Stop()
		m.Poll(time.Now())
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.Poll(time.Now())
			}
		}
	}()
}

// Close stops the loop (idempotent).
func (m *Monitor) Close() {
	m.once.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// lastHealthy returns the node's exposition from its last healthy round.
func (m *Monitor) lastHealthy(st *nodeState) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return st.last
}
