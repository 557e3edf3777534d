package obs_test

// The observability acceptance test: a real TCP loopback grid (one
// coordinator, two servers, one client) serves /metrics, /statusz,
// /healthz and /debug/pprof/ on every node kind while under submission
// load, and the trace assembler reconstructs a complete submit -> ack
// timeline — including a requeue hop provoked by killing the server
// that holds a dispatched task — purely from per-node /tracez dumps
// fetched over HTTP.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/coordinator"
	"rpcv/internal/grid"
	"rpcv/internal/msglog"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/server"
)

var gridExpositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+([eE][-+]?[0-9]+)?)$`)

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return string(body)
}

func tracezSpans(t *testing.T, base string) []obs.Span {
	t.Helper()
	var spans []obs.Span
	if err := json.Unmarshal([]byte(httpGet(t, base+"/tracez")), &spans); err != nil {
		t.Fatalf("tracez %s: %v", base, err)
	}
	return spans
}

func TestGridObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP grid test")
	}
	const (
		beat    = 25 * time.Millisecond
		suspect = 250 * time.Millisecond
	)
	g := grid.New(grid.Options{})
	defer g.Close()

	admins := map[proto.NodeID]*obs.Admin{}
	serve := func(id proto.NodeID, o *obs.Observer) string {
		adm, err := obs.ServeAdmin("127.0.0.1:0", o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { adm.Close() })
		admins[id] = adm
		return "http://" + adm.Addr()
	}

	coObs := obs.New("co")
	co := coordinator.New(coordinator.Config{
		Coordinators:     []proto.NodeID{"co"},
		HeartbeatPeriod:  beat,
		HeartbeatTimeout: suspect,
		Obs:              coObs,
	})
	if _, err := g.Start("co", func() rt.Config { return rt.Config{Handler: co, Obs: coObs} }); err != nil {
		t.Fatal(err)
	}
	coURL := serve("co", coObs)

	servers := map[proto.NodeID]*rt.Runtime{}
	for i := 0; i < 2; i++ {
		id := proto.NodeID(fmt.Sprintf("sv%d", i))
		svObs := obs.New(id)
		sv := server.New(server.Config{
			Coordinators:     []proto.NodeID{"co"},
			HeartbeatPeriod:  beat,
			SuspicionTimeout: suspect,
			Obs:              svObs,
		})
		rsv, err := g.Start(id, func() rt.Config { return rt.Config{Handler: sv, Obs: svObs} })
		if err != nil {
			t.Fatal(err)
		}
		servers[id] = rsv
		serve(id, svObs)
	}

	results := make(chan proto.RPCSeq, 64)
	cliObs := obs.New("cli")
	cli := client.New(client.Config{
		User: "u", Session: 1,
		Coordinators:     []proto.NodeID{"co"},
		PollPeriod:       beat,
		SuspicionTimeout: suspect,
		Logging:          msglog.NonBlockingPessimistic,
		OnResult:         func(res proto.Result, _ time.Time) { results <- res.Call.Seq },
		Obs:              cliObs,
	})
	rcli, err := g.Start("cli", func() rt.Config { return rt.Config{Handler: cli, Obs: cliObs} })
	if err != nil {
		t.Fatal(err)
	}
	cliURL := serve("cli", cliObs)

	// Load: a burst of instant calls plus one slow timed call whose
	// server we will kill mid-execution to provoke a requeue.
	const fast = 10
	var slowSeq proto.RPCSeq
	rcli.Do(func() {
		for i := 0; i < fast; i++ {
			cli.Submit("noop", nil, 0, 0)
		}
		slowSeq = cli.Submit("noop", nil, time.Second, 16)
	})

	// Wait for the coordinator to dispatch the slow call, learn which
	// server holds it from the dispatch span's detail, and kill that
	// server abruptly. Heartbeat silence must then drive the requeue.
	var victim proto.NodeID
	deadline := time.Now().Add(10 * time.Second)
	for victim == "" && time.Now().Before(deadline) {
		for _, sp := range tracezSpans(t, coURL) {
			if sp.Call.Seq == slowSeq && sp.Stage == obs.StageDispatch {
				victim = proto.NodeID(sp.Detail)
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if victim == "" {
		t.Fatal("slow call was never dispatched")
	}
	rvictim, ok := servers[victim]
	if !ok {
		t.Fatalf("dispatch names unknown server %q", victim)
	}
	rvictim.Close()

	// All calls, including the requeued one, must complete.
	got := map[proto.RPCSeq]bool{}
	deadline = time.Now().Add(30 * time.Second)
	for len(got) < fast+1 && time.Now().Before(deadline) {
		select {
		case seq := <-results:
			got[seq] = true
		case <-time.After(time.Second):
		}
	}
	if !got[slowSeq] {
		t.Fatalf("slow call %d never completed after server kill (%d/%d results)",
			slowSeq, len(got), fast+1)
	}

	// Every node kind serves the full endpoint set while the grid runs.
	for id, adm := range admins {
		base := "http://" + adm.Addr()
		if body := httpGet(t, base+"/healthz"); strings.TrimSpace(body) != "ok" {
			t.Errorf("%s /healthz = %q", id, body)
		}
		metrics := httpGet(t, base+"/metrics")
		for _, line := range strings.Split(strings.TrimRight(metrics, "\n"), "\n") {
			if line != "" && !gridExpositionLine.MatchString(line) {
				t.Errorf("%s /metrics malformed line %q", id, line)
			}
		}
		var status map[string]any
		if err := json.Unmarshal([]byte(httpGet(t, base+"/statusz")), &status); err != nil {
			t.Errorf("%s /statusz: %v", id, err)
		}
		if body := httpGet(t, base+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
			t.Errorf("%s /debug/pprof/ not serving", id)
		}
	}

	// Per-kind counters made it to the exposition.
	for url, want := range map[string]string{
		coURL:  `rpcv_coord_submits_total{node="co"}`,
		cliURL: `rpcv_client_submitted_total{node="cli"}`,
	} {
		if !strings.Contains(httpGet(t, url+"/metrics"), want) {
			t.Errorf("%s missing %s", url, want)
		}
	}
	// Assemble the end-to-end timeline from per-node /tracez dumps —
	// the dead server's admin still serves its ring.
	var dumps [][]obs.Span
	for _, adm := range admins {
		dumps = append(dumps, tracezSpans(t, "http://"+adm.Addr()))
	}
	var slow *obs.Timeline
	for _, tl := range obs.Assemble(dumps...) {
		if tl.Call.Seq == slowSeq {
			cp := tl
			slow = &cp
			break
		}
	}
	if slow == nil {
		t.Fatal("assembled timelines miss the slow call")
	}
	for _, stage := range []obs.Stage{obs.StageSubmit, obs.StageEnqueue,
		obs.StageDispatch, obs.StageRequeue, obs.StageExec,
		obs.StageResult, obs.StageAck} {
		if !slow.Has(stage) {
			t.Errorf("timeline misses %s: %v", stage, slow.Stages())
		}
	}
	// The requeue says why: the server went silent.
	if sp, ok := slow.Stage(obs.StageRequeue); !ok || sp.Detail != "server-suspected" {
		t.Errorf("requeue span = %+v, want detail server-suspected", sp)
	}
	if want := `rpcv_coord_requeues_total{node="co",reason="server-suspected"} 1`; !strings.Contains(httpGet(t, coURL+"/metrics"), want) {
		t.Errorf("coordinator /metrics misses %s", want)
	}
	// The requeue means two dispatches; the exec must be on a survivor.
	dispatches := 0
	for _, s := range slow.Stages() {
		if s == obs.StageDispatch {
			dispatches++
		}
	}
	if dispatches < 2 {
		t.Errorf("want >= 2 dispatches after requeue, got %d: %v", dispatches, slow.Stages())
	}
	if sp, ok := slow.Stage(obs.StageExec); !ok || sp.Node == victim {
		t.Errorf("exec ran on the killed server: %+v", sp)
	}

	// And the whole thing renders as loadable Chrome trace JSON.
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(obs.ChromeTrace(obs.Assemble(dumps...)), &doc); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace is empty")
	}
}
