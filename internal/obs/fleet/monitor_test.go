package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rpcv/internal/obs"
	"rpcv/internal/proto"
)

var epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return epoch.Add(time.Duration(sec) * time.Second) }

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A node is down after downAfter failed rounds in a row, and that
// transition captures one bundle; a blip does not, a node that stays
// down does not capture again, and a second transition within
// captureSpacing of the last capture is skipped.
func TestMonitorDownAfterConsecutiveFailuresAndBundle(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	down := map[proto.NodeID]bool{}
	round := 0
	tracer := obs.NewTracer("sv0", 16)
	tracer.EventAt(at(0), proto.CallID{Seq: 1}, obs.StageExec, "")
	src := func(id proto.NodeID) Source {
		return &FuncSource{
			Node: id,
			Metrics: func() ([]byte, error) {
				mu.Lock()
				defer mu.Unlock()
				if down[id] {
					return nil, fmt.Errorf("connection refused")
				}
				return []byte(fmt.Sprintf("rpcv_round{node=%q} %d\n", id, round)), nil
			},
			Trace: func() []obs.Span {
				if id == "sv0" {
					return tracer.Dump()
				}
				return nil
			},
		}
	}
	m := New(Config{Sources: []Source{src("sv1"), src("sv0")}, BundleDir: dir})
	step := func(sec int, state map[proto.NodeID]bool) string {
		mu.Lock()
		round = sec
		for id, d := range state {
			down[id] = d
		}
		mu.Unlock()
		return m.Poll(at(sec))
	}

	if got := step(0, nil); got != "" {
		t.Fatalf("healthy round captured %s", got)
	}
	if got := step(1, map[proto.NodeID]bool{"sv0": true, "sv1": true}); got != "" {
		t.Fatalf("first failure captured %s", got)
	}
	// sv1 comes back: a blip. sv0's second failure is a death.
	first := step(2, map[proto.NodeID]bool{"sv1": false})
	if !strings.HasSuffix(first, "-node-sv0-down") {
		t.Fatalf("second failure captured %q, want a node-sv0-down bundle", first)
	}
	// The dead node's exposition is its last healthy one (round 0); the
	// live node's is fresh at capture time.
	if got := readFile(t, filepath.Join(first, "metrics", "sv0.txt")); !strings.Contains(got, "} 0") {
		t.Errorf("sv0 metrics = %q, want round 0's", got)
	}
	if got := readFile(t, filepath.Join(first, "metrics", "sv1.txt")); !strings.Contains(got, "} 2") {
		t.Errorf("sv1 metrics = %q, want round 2's", got)
	}
	var timelines []obs.Timeline
	if err := json.Unmarshal([]byte(readFile(t, filepath.Join(first, "timelines.json"))), &timelines); err != nil {
		t.Fatal(err)
	}
	if len(timelines) != 1 || !timelines[0].Has(obs.StageExec) {
		t.Fatalf("timelines = %+v", timelines)
	}
	if _, err := os.Stat(filepath.Join(first, "trace.chrome.json")); err != nil {
		t.Error(err)
	}

	// sv0 stays down: no new transition. sv1 dies 2s after the capture:
	// a transition inside the spacing, skipped.
	for sec := 3; sec <= 5; sec++ {
		if got := step(sec, map[proto.NodeID]bool{"sv1": true}); got != "" {
			t.Fatalf("round at %ds captured %s", sec, got)
		}
	}
	// sv1 recovers; sv0, still down past the spacing, is no new
	// transition either.
	if got := step(35, map[proto.NodeID]bool{"sv1": false}); got != "" {
		t.Fatalf("a node that stayed down captured %s", got)
	}
	// sv0 recovers, then dies again.
	step(36, map[proto.NodeID]bool{"sv0": false})
	step(40, map[proto.NodeID]bool{"sv0": true})
	if second := step(41, nil); !strings.HasSuffix(second, "-node-sv0-down") {
		t.Fatalf("second death captured %q", second)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d bundles, want 2: %v", len(entries), entries)
	}
}

// A node whose admin endpoint answers but whose liveness probe fails
// is down too; its bundle keeps the exposition from before the probe
// failed.
func TestMonitorLivenessProbeCritical(t *testing.T) {
	var mu sync.Mutex
	stalled := false
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if stalled {
			http.Error(w, "unhealthy: event loop did not respond within 500ms", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(w, "rpcv_stalled %v\n", stalled)
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "[]") })
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var logs []string
	m := New(Config{
		Sources:   []Source{NewHTTPSource("co", srv.URL)},
		BundleDir: t.TempDir(),
		Logf:      func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) },
	})
	if got := m.Poll(at(0)); got != "" {
		t.Fatalf("healthy round captured %s", got)
	}
	mu.Lock()
	stalled = true
	mu.Unlock()
	m.Poll(at(1))
	dir := m.Poll(at(2))
	if dir == "" {
		t.Fatal("two failed probes captured nothing")
	}
	if !strings.Contains(strings.Join(logs, "\n"), "event loop did not respond") {
		t.Errorf("the probe's reason is not logged: %q", logs)
	}
	if got := readFile(t, filepath.Join(dir, "metrics", "co.txt")); got != "rpcv_stalled false\n" {
		t.Errorf("metrics = %q, want the last healthy exposition", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "statusz")); !os.IsNotExist(err) {
		t.Errorf("a failed /statusz left a file: %v", err)
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
