package fleet

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"rpcv/internal/proto"
)

// Level grades health; higher is worse. A fleet's level is the worst
// of its parts.
type Level int

const (
	LevelOK Level = iota
	LevelWarn
	LevelCritical
	LevelDown
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelOK:
		return "ok"
	case LevelWarn:
		return "warn"
	case LevelCritical:
		return "critical"
	case LevelDown:
		return "down"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// MarshalJSON renders the level as its name.
func (l Level) MarshalJSON() ([]byte, error) { return json.Marshal(l.String()) }

// UnmarshalJSON parses a level name, so /clusterz JSON round-trips
// into the verdict types.
func (l *Level) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for _, c := range []Level{LevelOK, LevelWarn, LevelCritical, LevelDown} {
		if s == c.String() {
			*l = c
			return nil
		}
	}
	return fmt.Errorf("fleet: unknown level %q", s)
}

// SLO is the declarative service-level model the monitor evaluates
// every scrape. The zero value of any field disables that rule, so a
// deployment opts into exactly the objectives it cares about.
type SLO struct {
	// DispatchP99 is the per-shard target for the coordinator
	// queue→dispatch p99 (rpcv_coord_dispatch_latency_ns, quantile
	// 0.99). The shard goes Warn when the latest reading exceeds it and
	// Critical when at least half the window burns above it.
	DispatchP99 time.Duration `json:"dispatch_p99,omitempty"`
	// WALCommitP99 bounds each node's durable-write p99
	// (rpcv_store_write_latency_ns, quantile 0.99); same Warn/Critical
	// burn semantics as DispatchP99.
	WALCommitP99 time.Duration `json:"wal_commit_p99,omitempty"`
	// MaxQueueDepth bounds a shard's summed scheduler queue depth
	// (rpcv_sched_queue_depth). Warn above it, Critical above twice it.
	MaxQueueDepth float64 `json:"max_queue_depth,omitempty"`
	// MaxRequeueRate bounds a shard's fault-requeue rate
	// (rpcv_coord_requeues_total, per second over the window): a
	// requeue storm means servers are dying under dispatched work.
	MaxRequeueRate float64 `json:"max_requeue_rate,omitempty"`
	// MaxRedialRate bounds a node's transport redial rate
	// (rpcv_transport_redials_total per second). A redial is one per
	// batch sent to an unreachable peer, so the rate reads how often a
	// node knocks on down peers (about one per heartbeat or poll period
	// per down peer), not only connections that broke.
	MaxRedialRate float64 `json:"max_redial_rate,omitempty"`
	// MaxShedRate bounds a node's transport shed rate
	// (rpcv_transport_sheds_total per second): sheds mean outbound
	// queues overflowed and messages were dropped.
	MaxShedRate float64 `json:"max_shed_rate,omitempty"`
}

// Config parameterizes a Monitor.
type Config struct {
	// Sources are the nodes to watch.
	Sources []Source
	// Interval is the scrape period for Start (default 2s). Poll-driven
	// users (the sim harness) ignore it.
	Interval time.Duration
	// Timeout bounds each node's scrape (default Interval/2).
	Timeout time.Duration
	// History is the per-metric ring capacity (default 512 points).
	History int
	// DownAfter is how many consecutive scrape failures flip a node to
	// Down (default 2) — one failure is a blip, a streak is a death.
	DownAfter int
	// Window is the lookback for rates and SLO burn (default
	// 15*Interval).
	Window time.Duration
	// SLO is the objective model; the zero value checks liveness only.
	SLO SLO
	// BundleDir, when set, arms the flight recorder: node deaths and
	// fresh Critical SLO breaches capture post-mortem bundles into
	// timestamped subdirectories.
	BundleDir string
	// BundleCooldown is the minimum spacing between automatic captures
	// (default 30s) so a flapping fleet does not fill the disk.
	BundleCooldown time.Duration
	// Logf receives monitor trace output; nil silences it.
	Logf func(format string, args ...any)
	// OnVerdict, when non-nil, observes every round's verdict.
	OnVerdict func(FleetVerdict)
}

// NodeVerdict is one node's health at one evaluation.
type NodeVerdict struct {
	Node           proto.NodeID `json:"node"`
	Role           string       `json:"role,omitempty"` // coordinator | server | client
	Level          Level        `json:"level"`
	Reasons        []string     `json:"reasons,omitempty"`
	LastScrape     time.Time    `json:"last_scrape,omitempty"`
	ScrapeFailures int          `json:"scrape_failures,omitempty"`
	Restarts       int          `json:"restarts,omitempty"`
}

// ShardVerdict is one coordinator shard's health at one evaluation,
// aggregated over its member ring.
type ShardVerdict struct {
	Shard       int            `json:"shard"`
	Members     []proto.NodeID `json:"members"`
	Level       Level          `json:"level"`
	Reasons     []string       `json:"reasons,omitempty"`
	QueueDepth  float64        `json:"queue_depth"`
	RequeueRate float64        `json:"requeue_rate"`
	DispatchP99 time.Duration  `json:"dispatch_p99"`
	Burn        float64        `json:"burn"` // window fraction above DispatchP99 target

	// Late replies (see internal/coordinator): the task slots servers
	// have on offer, and how many assignments and results have gone out
	// ahead of the peer's next pull since the members booted.
	IdleSlots     float64 `json:"idle_slots"`
	PushedTasks   float64 `json:"pushed_tasks"`
	PushedResults float64 `json:"pushed_results"`

	// Jobs is the members' job tables added up (rpcv_coord_jobs).
	// Collection keeps a table at the calls in flight plus the results
	// no Poll has acknowledged, so one that only grows is a session
	// that stopped acknowledging — or a successor that stopped acking
	// replication rounds (rpcv_coord_collect_waiting).
	Jobs float64 `json:"jobs"`
}

// FleetVerdict is one whole-fleet evaluation.
type FleetVerdict struct {
	At     time.Time      `json:"at"`
	Level  Level          `json:"level"`
	Nodes  []NodeVerdict  `json:"nodes"`
	Shards []ShardVerdict `json:"shards,omitempty"`
}

// Node returns the verdict for one node.
func (v FleetVerdict) Node(id proto.NodeID) (NodeVerdict, bool) {
	for _, n := range v.Nodes {
		if n.Node == id {
			return n, true
		}
	}
	return NodeVerdict{}, false
}

// seriesEntry is one metric's ring plus the identity it was keyed
// under, so rules can match on name and labels without re-parsing the
// key.
type seriesEntry struct {
	Name   string
	Labels map[string]string
	S      *Series
}

// nodeState is everything the monitor remembers about one node.
type nodeState struct {
	src     Source
	series  map[string]*seriesEntry // by Sample.Key()
	order   []string                // insertion order of series keys
	last    *Scrape
	lastErr error
	fails   int
	role    string
	uptime  float64 // last rpcv_uptime_seconds, for restart detection
	starts  int     // observed restarts (uptime drops)
}

func (n *nodeState) record(at time.Time, samples []Sample, history int) {
	for _, s := range samples {
		k := s.Key()
		e := n.series[k]
		if e == nil {
			e = &seriesEntry{Name: s.Name, Labels: s.Labels, S: NewSeries(history)}
			n.series[k] = e
			n.order = append(n.order, k)
		}
		e.S.Add(at, s.Value)
		switch {
		case strings.HasPrefix(s.Name, "rpcv_coord_"):
			n.role = "coordinator"
		case strings.HasPrefix(s.Name, "rpcv_server_"):
			n.role = "server"
		case n.role == "" && strings.HasPrefix(s.Name, "rpcv_client_"):
			n.role = "client"
		}
	}
}

// find returns the first series matching name and every given label.
func (n *nodeState) find(name string, labels map[string]string) *seriesEntry {
	for _, k := range n.order {
		e := n.series[k]
		if e.Name != name {
			continue
		}
		ok := true
		for lk, lv := range labels {
			if e.Labels[lk] != lv {
				ok = false
				break
			}
		}
		if ok {
			return e
		}
	}
	return nil
}

// sumRate adds up the per-second rate over win of every label variant
// of a counter — one that is split by a label the rule does not care
// about (rpcv_coord_requeues_total by reason).
func (n *nodeState) sumRate(name string, win time.Duration) float64 {
	var sum float64
	for _, k := range n.order {
		if e := n.series[k]; e.Name == name {
			if r, ok := e.S.Rate(win); ok {
				sum += r
			}
		}
	}
	return sum
}

// lastValue returns the latest reading of a metric (ok=false when the
// metric was never scraped).
func (n *nodeState) lastValue(name string, labels map[string]string) (float64, bool) {
	e := n.find(name, labels)
	if e == nil {
		return 0, false
	}
	p, ok := e.S.Last()
	return p.V, ok
}

// Monitor scrapes a fleet of sources, keeps rolling metric history,
// and grades every node and coordinator shard against the health/SLO
// model each round. It is the engine under cmd/rpcv-mon and under the
// cluster harness's in-process fleet view.
type Monitor struct {
	cfg Config

	mu          sync.Mutex
	nodes       map[proto.NodeID]*nodeState
	ids         []proto.NodeID // stable display order
	last        FleetVerdict
	worst       Level
	deaths      int // transitions into LevelDown
	bundles     []string
	lastCapture time.Time

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New builds a Monitor over cfg.Sources. Call Poll for synchronous
// rounds (simulation, tests) or Start for a wall-clock scrape loop.
func New(cfg Config) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval / 2
	}
	if cfg.History <= 0 {
		cfg.History = 512
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 2
	}
	if cfg.Window <= 0 {
		cfg.Window = 15 * cfg.Interval
	}
	if cfg.BundleCooldown <= 0 {
		cfg.BundleCooldown = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	m := &Monitor{
		cfg:   cfg,
		nodes: make(map[proto.NodeID]*nodeState, len(cfg.Sources)),
		stop:  make(chan struct{}),
	}
	for _, src := range cfg.Sources {
		m.nodes[src.ID()] = &nodeState{src: src, series: map[string]*seriesEntry{}}
		m.ids = append(m.ids, src.ID())
	}
	sort.Slice(m.ids, func(i, j int) bool { return m.ids[i] < m.ids[j] })
	return m
}

// Poll runs one synchronous round: scrape every source concurrently,
// fold the samples into history, evaluate the model, and fire the
// flight recorder on death or breach transitions. at stamps the round
// (virtual time under simulation, time.Now from the scrape loop).
func (m *Monitor) Poll(at time.Time) FleetVerdict {
	type result struct {
		id  proto.NodeID
		sc  *Scrape
		err error
	}
	m.mu.Lock()
	srcs := make([]Source, 0, len(m.ids))
	for _, id := range m.ids {
		srcs = append(srcs, m.nodes[id].src)
	}
	timeout := m.cfg.Timeout
	m.mu.Unlock()

	results := make([]result, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(i int, src Source) {
			defer wg.Done()
			sc, err := src.Scrape(timeout)
			results[i] = result{id: src.ID(), sc: sc, err: err}
		}(i, src)
	}
	wg.Wait()

	m.mu.Lock()
	prev := m.last
	for _, r := range results {
		st := m.nodes[r.id]
		if r.err != nil {
			st.fails++
			st.lastErr = r.err
			continue
		}
		st.fails, st.lastErr = 0, nil
		st.last = r.sc
		st.record(at, r.sc.Samples, m.cfg.History)
		if up, ok := st.lastValue("rpcv_uptime_seconds", nil); ok {
			if up < st.uptime {
				st.starts++
				m.cfg.Logf("fleet: node %s restarted (uptime %.1fs -> %.1fs)", r.id, st.uptime, up)
			}
			st.uptime = up
		}
	}
	verdict := m.evaluate(at)
	m.last = verdict
	if verdict.Level > m.worst {
		m.worst = verdict.Level
	}
	reason := m.captureReason(prev, verdict)
	m.mu.Unlock()

	if reason != "" && m.cfg.BundleDir != "" {
		if dir, err := m.CaptureBundle(reason); err != nil {
			m.cfg.Logf("fleet: bundle capture (%s): %v", reason, err)
		} else {
			m.cfg.Logf("fleet: captured post-mortem bundle %s (%s)", dir, reason)
		}
	}
	if m.cfg.OnVerdict != nil {
		m.cfg.OnVerdict(verdict)
	}
	return verdict
}

// evaluate grades the fleet from current history. Caller holds mu.
func (m *Monitor) evaluate(at time.Time) FleetVerdict {
	v := FleetVerdict{At: at}
	win := m.cfg.Window
	slo := m.cfg.SLO

	type shardAgg struct {
		members []proto.NodeID
		depth   float64
		requeue float64
		p99     float64
		burn    float64

		idle, pushedTasks, pushedResults, jobs float64
	}
	shards := map[int]*shardAgg{}

	for _, id := range m.ids {
		st := m.nodes[id]
		nv := NodeVerdict{Node: id, Role: st.role, Restarts: st.starts, ScrapeFailures: st.fails}
		if st.last != nil {
			nv.LastScrape = st.last.At
		}
		flag := func(l Level, format string, args ...any) {
			if l > nv.Level {
				nv.Level = l
			}
			nv.Reasons = append(nv.Reasons, fmt.Sprintf(format, args...))
		}

		switch {
		case st.fails >= m.cfg.DownAfter:
			flag(LevelDown, "unreachable: %d consecutive scrape failures (last: %v)", st.fails, st.lastErr)
		case st.fails > 0:
			flag(LevelWarn, "scrape failing: %v", st.lastErr)
		case st.last == nil:
			flag(LevelWarn, "never scraped")
		case !st.last.Healthy:
			flag(LevelCritical, "liveness probe failing: %s", st.last.HealthDetail)
		}

		// Per-node SLO rules only make sense while the node answers.
		if nv.Level < LevelDown && st.last != nil {
			if st.starts > 0 {
				nv.Reasons = append(nv.Reasons, fmt.Sprintf("restarted %d time(s)", st.starts))
				if nv.Level < LevelWarn {
					nv.Level = LevelWarn
				}
			}
			if slo.MaxRedialRate > 0 {
				if e := st.find("rpcv_transport_redials_total", nil); e != nil {
					if r, ok := e.S.Rate(win); ok && r > slo.MaxRedialRate {
						flag(LevelWarn, "redial rate %.2f/s exceeds %.2f/s", r, slo.MaxRedialRate)
					}
				}
			}
			if slo.MaxShedRate > 0 {
				if e := st.find("rpcv_transport_sheds_total", nil); e != nil {
					if r, ok := e.S.Rate(win); ok && r > slo.MaxShedRate {
						flag(LevelWarn, "shed rate %.2f/s exceeds %.2f/s", r, slo.MaxShedRate)
					}
				}
			}
			if slo.WALCommitP99 > 0 {
				if e := st.find("rpcv_store_write_latency_ns", map[string]string{"quantile": "0.99"}); e != nil {
					target := float64(slo.WALCommitP99.Nanoseconds())
					p, _ := e.S.Last()
					burn, _ := e.S.Above(target, win)
					switch {
					case burn >= 0.5:
						flag(LevelCritical, "wal commit p99 %v above %v for %d%% of window",
							time.Duration(int64(p.V)).Round(time.Microsecond), slo.WALCommitP99, int(burn*100))
					case p.V > target:
						flag(LevelWarn, "wal commit p99 %v exceeds %v",
							time.Duration(int64(p.V)).Round(time.Microsecond), slo.WALCommitP99)
					}
				}
			}
		}

		// Fold coordinators into their shard aggregate.
		if st.role == "coordinator" && nv.Level < LevelDown {
			idx := 0
			if si, ok := st.lastValue("rpcv_coord_shard_index", nil); ok {
				idx = int(si)
			}
			agg := shards[idx]
			if agg == nil {
				agg = &shardAgg{}
				shards[idx] = agg
			}
			agg.members = append(agg.members, id)
			sum := func(into *float64, name string, labels map[string]string) {
				if v, ok := st.lastValue(name, labels); ok {
					*into += v
				}
			}
			viaPush := map[string]string{"via": "push"}
			sum(&agg.depth, "rpcv_sched_queue_depth", nil)
			sum(&agg.idle, "rpcv_coord_idle_slots", nil)
			sum(&agg.jobs, "rpcv_coord_jobs", nil)
			sum(&agg.pushedTasks, "rpcv_coord_assigned_total", viaPush)
			sum(&agg.pushedResults, "rpcv_coord_results_sent_total", viaPush)
			agg.requeue += st.sumRate("rpcv_coord_requeues_total", win)
			if e := st.find("rpcv_coord_dispatch_latency_ns", map[string]string{"quantile": "0.99"}); e != nil {
				if p, ok := e.S.Last(); ok && p.V > agg.p99 {
					agg.p99 = p.V
				}
				if slo.DispatchP99 > 0 {
					if b, ok := e.S.Above(float64(slo.DispatchP99.Nanoseconds()), win); ok && b > agg.burn {
						agg.burn = b
					}
				}
			}
		}

		if v.Level < nv.Level {
			v.Level = nv.Level
		}
		v.Nodes = append(v.Nodes, nv)
	}

	idxs := make([]int, 0, len(shards))
	for i := range shards {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		agg := shards[i]
		sv := ShardVerdict{
			Shard: i, Members: agg.members,
			QueueDepth: agg.depth, RequeueRate: agg.requeue,
			DispatchP99: time.Duration(int64(agg.p99)), Burn: agg.burn,
			IdleSlots: agg.idle, PushedTasks: agg.pushedTasks, PushedResults: agg.pushedResults,
			Jobs: agg.jobs,
		}
		flag := func(l Level, format string, args ...any) {
			if l > sv.Level {
				sv.Level = l
			}
			sv.Reasons = append(sv.Reasons, fmt.Sprintf(format, args...))
		}
		if slo.MaxQueueDepth > 0 {
			switch {
			case agg.depth > 2*slo.MaxQueueDepth:
				flag(LevelCritical, "queue depth %.0f more than double the %.0f limit", agg.depth, slo.MaxQueueDepth)
			case agg.depth > slo.MaxQueueDepth:
				flag(LevelWarn, "queue depth %.0f exceeds %.0f", agg.depth, slo.MaxQueueDepth)
			}
		}
		if slo.MaxRequeueRate > 0 && agg.requeue > slo.MaxRequeueRate {
			flag(LevelWarn, "requeue rate %.2f/s exceeds %.2f/s", agg.requeue, slo.MaxRequeueRate)
		}
		if slo.DispatchP99 > 0 {
			target := float64(slo.DispatchP99.Nanoseconds())
			switch {
			case agg.burn >= 0.5:
				flag(LevelCritical, "dispatch p99 above %v for %d%% of window", slo.DispatchP99, int(agg.burn*100))
			case agg.p99 > target:
				flag(LevelWarn, "dispatch p99 %v exceeds %v", sv.DispatchP99.Round(time.Microsecond), slo.DispatchP99)
			}
		}
		if v.Level < sv.Level {
			v.Level = sv.Level
		}
		v.Shards = append(v.Shards, sv)
	}
	return v
}

// captureReason decides whether this round's transition warrants an
// automatic flight bundle. Caller holds mu.
func (m *Monitor) captureReason(prev, cur FleetVerdict) string {
	if m.cfg.BundleDir == "" {
		return ""
	}
	if !m.lastCapture.IsZero() && cur.At.Sub(m.lastCapture) < m.cfg.BundleCooldown {
		return ""
	}
	for _, n := range cur.Nodes {
		p, had := prev.Node(n.Node)
		if n.Level >= LevelDown && (!had || p.Level < LevelDown) {
			m.lastCapture = cur.At
			return fmt.Sprintf("node-%s-down", n.Node)
		}
		if n.Level == LevelCritical && (!had || p.Level < LevelCritical) {
			m.lastCapture = cur.At
			return fmt.Sprintf("node-%s-critical", n.Node)
		}
	}
	for _, s := range cur.Shards {
		if s.Level < LevelCritical {
			continue
		}
		was := false
		for _, ps := range prev.Shards {
			if ps.Shard == s.Shard && ps.Level >= LevelCritical {
				was = true
			}
		}
		if !was {
			m.lastCapture = cur.At
			return fmt.Sprintf("shard-%d-critical", s.Shard)
		}
	}
	return ""
}

// Start launches the wall-clock scrape loop (one Poll per Interval,
// first round immediately). Close stops it.
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

// Close stops the scrape loop (idempotent).
func (m *Monitor) Close() {
	m.once.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// Verdict returns the latest round's verdict.
func (m *Monitor) Verdict() FleetVerdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last
}

// WorstSeen returns the worst fleet level any round produced.
func (m *Monitor) WorstSeen() Level {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.worst
}

// Bundles lists the flight-bundle directories captured so far.
func (m *Monitor) Bundles() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.bundles...)
}

// History snapshots every node's retained metric rings:
// node → metric key → points, oldest first. This is what flight
// bundles persist as history.json.
func (m *Monitor) History() map[proto.NodeID]map[string][]Point {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[proto.NodeID]map[string][]Point, len(m.nodes))
	for id, st := range m.nodes {
		hm := make(map[string][]Point, len(st.series))
		for k, e := range st.series {
			hm[k] = e.S.Points()
		}
		out[id] = hm
	}
	return out
}
