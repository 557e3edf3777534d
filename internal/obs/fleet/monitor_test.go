package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rpcv/internal/obs"
	"rpcv/internal/proto"
)

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return string(body)
}

// coordSamples fabricates one coordinator's scrape: shard index, queue
// depth, requeue counter, dispatch p99 and uptime.
func coordSamples(node string, shard int, depth, requeues, p99ns, uptime float64) []Sample {
	nl := map[string]string{"node": node}
	ql := map[string]string{"node": node, "quantile": "0.99"}
	return []Sample{
		{Name: "rpcv_coord_shard_index", Labels: nl, Value: float64(shard)},
		{Name: "rpcv_sched_queue_depth", Labels: nl, Value: depth},
		{Name: "rpcv_coord_requeues_total", Labels: nl, Value: requeues},
		{Name: "rpcv_coord_dispatch_latency_ns", Labels: ql, Value: p99ns},
		{Name: "rpcv_uptime_seconds", Labels: nl, Value: uptime},
	}
}

func staticSource(id string, samples func() []Sample) *FuncSource {
	return &FuncSource{Node: proto.NodeID(id), Fetch: func() ([]Sample, error) { return samples(), nil }}
}

func TestMonitorGradesHealthyFleetOK(t *testing.T) {
	up := 0.0
	m := New(Config{
		Sources: []Source{staticSource("coord-00", func() []Sample {
			up++
			return coordSamples("coord-00", 0, 3, 0, 1e6, up)
		})},
		Interval: time.Second,
	})
	var v FleetVerdict
	for i := 0; i < 3; i++ {
		v = m.Poll(at(i))
	}
	if v.Level != LevelOK {
		t.Fatalf("level = %v, want ok: %+v", v.Level, v)
	}
	nv, ok := v.Node("coord-00")
	if !ok || nv.Role != "coordinator" || len(nv.Reasons) != 0 {
		t.Fatalf("node verdict = %+v ok=%v", nv, ok)
	}
	if len(v.Shards) != 1 || v.Shards[0].QueueDepth != 3 {
		t.Fatalf("shards = %+v", v.Shards)
	}
}

func TestMonitorDownAfterConsecutiveFailuresAndBundle(t *testing.T) {
	dir := t.TempDir()
	dead := false
	tracer := obs.NewTracer("sv0", 16)
	tracer.EventAt(at(0), proto.CallID{Seq: 1}, obs.StageExec, "")
	src := &FuncSource{
		Node: "sv0",
		Fetch: func() ([]Sample, error) {
			if dead {
				return nil, fmt.Errorf("connection refused")
			}
			return []Sample{{Name: "rpcv_server_executed_total",
				Labels: map[string]string{"node": "sv0"}, Value: 7}}, nil
		},
		Trace: func() []obs.Span { return tracer.Dump() },
	}
	m := New(Config{Sources: []Source{src}, Interval: time.Second, DownAfter: 2, BundleDir: dir})

	if v := m.Poll(at(0)); v.Level != LevelOK {
		t.Fatalf("healthy round level = %v", v.Level)
	}
	dead = true
	if v := m.Poll(at(1)); v.Level != LevelWarn {
		t.Fatalf("first failure should be warn, got %v", v.Level)
	}
	v := m.Poll(at(2))
	if v.Level != LevelDown {
		t.Fatalf("second failure should be down, got %+v", v)
	}
	nv, _ := v.Node("sv0")
	if nv.ScrapeFailures != 2 || !strings.Contains(strings.Join(nv.Reasons, " "), "unreachable") {
		t.Fatalf("node verdict = %+v", nv)
	}

	// The down transition must have fired the flight recorder.
	bundles := m.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("bundles = %v, want exactly one", bundles)
	}
	for _, name := range []string{"verdict.json", "history.json", "timelines.json", "trace.chrome.json"} {
		if _, err := os.Stat(filepath.Join(bundles[0], name)); err != nil {
			t.Errorf("bundle missing %s: %v", name, err)
		}
	}
	// History must cover the healthy rounds (the dead node's last
	// samples survive in the rings).
	var hist map[string]map[string][]Point
	b, err := os.ReadFile(filepath.Join(bundles[0], "history.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist["sv0"]) == 0 {
		t.Fatalf("history.json has no sv0 series: %v", hist)
	}
	// The bundle's timeline carries the span ring.
	var timelines []obs.Timeline
	b, err = os.ReadFile(filepath.Join(bundles[0], "timelines.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &timelines); err != nil {
		t.Fatal(err)
	}
	if len(timelines) != 1 || !timelines[0].Has(obs.StageExec) {
		t.Fatalf("timelines = %+v", timelines)
	}

	// Cooldown: an immediate second death-level round must not capture
	// another bundle.
	m.Poll(at(3))
	if got := m.Bundles(); len(got) != 1 {
		t.Fatalf("cooldown violated: %v", got)
	}
	if m.WorstSeen() != LevelDown {
		t.Fatalf("worst seen = %v", m.WorstSeen())
	}
}

func TestMonitorLivenessProbeCritical(t *testing.T) {
	stalled := false
	src := &FuncSource{
		Node:  "co",
		Fetch: func() ([]Sample, error) { return coordSamples("co", 0, 0, 0, 1e6, 1), nil },
		Health: func() error {
			if stalled {
				return fmt.Errorf("event loop did not respond within 500ms")
			}
			return nil
		},
	}
	m := New(Config{Sources: []Source{src}, Interval: time.Second})
	if v := m.Poll(at(0)); v.Level != LevelOK {
		t.Fatalf("level = %v", v.Level)
	}
	stalled = true
	v := m.Poll(at(1))
	if v.Level != LevelCritical {
		t.Fatalf("stalled node level = %v, want critical", v.Level)
	}
	nv, _ := v.Node("co")
	if !strings.Contains(strings.Join(nv.Reasons, " "), "event loop") {
		t.Fatalf("reasons = %v", nv.Reasons)
	}
}

// The coordinator splits rpcv_coord_requeues_total by reason; the
// shard's requeue rate and its rule read the sum, as they read the
// single series before the split.
func TestRequeueRateSumsOverReasons(t *testing.T) {
	sync, suspected := 0.0, 0.0
	m := New(Config{
		Sources: []Source{staticSource("coord-00", func() []Sample {
			out := coordSamples("coord-00", 0, 0, 0, 1e6, 1)[:2]
			for reason, v := range map[string]float64{"server-sync": sync, "server-suspected": suspected, "adopted": 0} {
				out = append(out, Sample{Name: "rpcv_coord_requeues_total",
					Labels: map[string]string{"node": "coord-00", "reason": reason}, Value: v})
			}
			return out
		})},
		Interval: time.Second,
		SLO:      SLO{MaxRequeueRate: 35},
	})
	m.Poll(at(0))
	sync, suspected = 30, 10
	v := m.Poll(at(1))
	if len(v.Shards) != 1 || v.Shards[0].RequeueRate != 40 {
		t.Fatalf("requeue rate = %+v, want 30/s + 10/s", v.Shards)
	}
	if v.Shards[0].Level != LevelWarn || !strings.Contains(strings.Join(v.Shards[0].Reasons, " "), "requeue rate 40.00/s") {
		t.Fatalf("the rule did not fire on the sum: %+v", v.Shards[0])
	}
}

func TestMonitorShardSLO(t *testing.T) {
	depth, p99 := 2.0, 1e6 // healthy: depth 2, dispatch p99 1ms
	requeues := 0.0
	mk := func(node string, shard int) Source {
		return staticSource(node, func() []Sample {
			return coordSamples(node, shard, depth, requeues, p99, 1)
		})
	}
	m := New(Config{
		Sources:  []Source{mk("coord-00", 0), mk("coord-01", 0), mk("coord-02", 1)},
		Interval: time.Second,
		SLO: SLO{
			DispatchP99:    10 * time.Millisecond,
			MaxQueueDepth:  10,
			MaxRequeueRate: 1,
		},
	})
	v := m.Poll(at(0))
	if v.Level != LevelOK || len(v.Shards) != 2 {
		t.Fatalf("healthy verdict = %+v", v)
	}
	if v.Shards[0].QueueDepth != 4 || v.Shards[1].QueueDepth != 2 {
		t.Fatalf("shard depths = %+v", v.Shards)
	}

	// Queue depth past the limit: warn; past double: critical.
	depth = 6 // shard 0 sums to 12 > 10
	if v = m.Poll(at(1)); v.Shards[0].Level != LevelWarn {
		t.Fatalf("depth breach = %+v", v.Shards[0])
	}
	depth = 11 // shard 0 sums to 22 > 20
	if v = m.Poll(at(2)); v.Shards[0].Level != LevelCritical {
		t.Fatalf("depth double breach = %+v", v.Shards[0])
	}
	depth = 2

	// A requeue storm: 10 requeues/s against a 1/s objective.
	requeues = 100
	m.Poll(at(3))
	requeues = 110
	v = m.Poll(at(4))
	found := false
	for _, s := range v.Shards {
		if s.Shard == 0 && strings.Contains(strings.Join(s.Reasons, " "), "requeue rate") {
			found = true
			if s.RequeueRate <= 1 {
				t.Errorf("requeue rate = %v", s.RequeueRate)
			}
		}
	}
	if !found {
		t.Fatalf("no requeue-rate breach in %+v", v.Shards)
	}

	// Dispatch p99 burn: hold the quantile above target long enough
	// that more than half the window burns → critical.
	requeues = 0
	p99 = 50e6 // 50ms against a 10ms target
	var last FleetVerdict
	for i := 5; i < 40; i++ {
		last = m.Poll(at(i))
	}
	var s0 ShardVerdict
	for _, s := range last.Shards {
		if s.Shard == 0 {
			s0 = s
		}
	}
	if s0.Level != LevelCritical || s0.Burn < 0.5 {
		t.Fatalf("burn verdict = %+v", s0)
	}
	if s0.DispatchP99 != 50*time.Millisecond {
		t.Fatalf("dispatch p99 = %v", s0.DispatchP99)
	}
}

func TestMonitorNodeSLORules(t *testing.T) {
	redials, walP99 := 0.0, 1e6
	src := staticSource("sv0", func() []Sample {
		nl := map[string]string{"node": "sv0"}
		return []Sample{
			{Name: "rpcv_server_running", Labels: nl, Value: 1},
			{Name: "rpcv_transport_redials_total", Labels: nl, Value: redials},
			{Name: "rpcv_store_write_latency_ns",
				Labels: map[string]string{"node": "sv0", "quantile": "0.99"}, Value: walP99},
		}
	})
	m := New(Config{
		Sources:  []Source{src},
		Interval: time.Second,
		SLO:      SLO{MaxRedialRate: 1, WALCommitP99: 5 * time.Millisecond},
	})
	m.Poll(at(0))
	if v := m.Poll(at(1)); v.Level != LevelOK {
		t.Fatalf("healthy = %+v", v)
	}
	redials = 20 // 10/s vs limit 1/s
	v := m.Poll(at(3))
	nv, _ := v.Node("sv0")
	if nv.Level != LevelWarn || !strings.Contains(strings.Join(nv.Reasons, " "), "redial") {
		t.Fatalf("redial verdict = %+v", nv)
	}
	// WAL p99 above target for most of the window → critical.
	walP99 = 50e6
	for i := 4; i < 40; i++ {
		v = m.Poll(at(i))
	}
	nv, _ = v.Node("sv0")
	if nv.Level != LevelCritical || !strings.Contains(strings.Join(nv.Reasons, " "), "wal commit") {
		t.Fatalf("wal burn verdict = %+v", nv)
	}
}

func TestMonitorDetectsRestart(t *testing.T) {
	up := 100.0
	m := New(Config{
		Sources: []Source{staticSource("sv0", func() []Sample {
			return []Sample{
				{Name: "rpcv_server_running", Labels: map[string]string{"node": "sv0"}, Value: 0},
				{Name: "rpcv_uptime_seconds", Labels: map[string]string{"node": "sv0"}, Value: up},
			}
		})},
		Interval: time.Second,
	})
	m.Poll(at(0))
	up = 2 // process came back young
	v := m.Poll(at(1))
	nv, _ := v.Node("sv0")
	if nv.Restarts != 1 || nv.Level != LevelWarn {
		t.Fatalf("restart verdict = %+v", nv)
	}
}

func TestHandlerServesClusterz(t *testing.T) {
	m := New(Config{
		Sources: []Source{staticSource("coord-00", func() []Sample {
			return coordSamples("coord-00", 0, 1, 0, 1e6, 1)
		})},
		Interval: time.Second,
	})
	m.Poll(at(0))
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	body := httpGetBody(t, srv.URL+"/clusterz")
	var v FleetVerdict
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("/clusterz JSON: %v\n%s", err, body)
	}
	if len(v.Nodes) != 1 || v.Nodes[0].Node != "coord-00" {
		t.Fatalf("verdict = %+v", v)
	}

	text := httpGetBody(t, srv.URL+"/clusterz?format=text")
	for _, want := range []string{"fleet OK", "coord-00", "coordinator", "SHARD"} {
		if !strings.Contains(text, want) {
			t.Errorf("text view missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(httpGetBody(t, srv.URL+"/healthz"), "ok") {
		t.Error("/healthz not ok for a healthy fleet")
	}
	var hist map[string]map[string][]Point
	if err := json.Unmarshal([]byte(httpGetBody(t, srv.URL+"/historyz")), &hist); err != nil {
		t.Fatalf("/historyz: %v", err)
	}
	if len(hist["coord-00"]) == 0 {
		t.Fatal("/historyz empty")
	}
}

func TestParseTargets(t *testing.T) {
	srcs, err := ParseTargets("co=127.0.0.1:8080, sv0=http://127.0.0.1:8081")
	if err != nil || len(srcs) != 2 {
		t.Fatalf("srcs=%v err=%v", srcs, err)
	}
	h := srcs[0].(*HTTPSource)
	if h.Node != "co" || h.Base != "http://127.0.0.1:8080" {
		t.Fatalf("source = %+v", h)
	}
	for _, bad := range []string{"", "noequals", "co=", "=addr", "a=1,a=2"} {
		if _, err := ParseTargets(bad); err == nil {
			t.Errorf("ParseTargets(%q): want error", bad)
		}
	}
}
