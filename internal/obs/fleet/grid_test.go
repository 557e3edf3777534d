package fleet_test

// The flight recorder's acceptance test: a real TCP loopback grid (one
// coordinator, two servers, one client) under submission load, each
// node serving its admin endpoint, watched by a Monitor over HTTP
// sources exactly as cmd/rpcv-mon would. Closing the runtime of the
// server that holds a dispatched task must capture a bundle within two
// rounds, and the post-mortem bundle must hold the assembled submit→ack
// timeline — requeue hop included — plus the victim's exposition from
// before the kill.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/coordinator"
	"rpcv/internal/grid"
	"rpcv/internal/msglog"
	"rpcv/internal/obs"
	"rpcv/internal/obs/fleet"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/server"
)

func getBody(t *testing.T, url string) string {
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

// uptime reads rpcv_uptime_seconds out of an exposition.
func uptime(t *testing.T, exposition string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "rpcv_uptime_seconds{") {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("no rpcv_uptime_seconds in:\n%s", exposition)
	return 0
}

func TestFleetGridKillAndFlightRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP grid test")
	}
	const (
		beat    = 25 * time.Millisecond
		suspect = 250 * time.Millisecond
	)
	g := grid.New(grid.Options{})
	defer g.Close()
	bundleDir := t.TempDir()

	var sources []fleet.Source
	admins := map[proto.NodeID]string{}
	serve := func(id proto.NodeID, o *obs.Observer, rtm *rt.Runtime) {
		adm, err := obs.ServeAdmin("127.0.0.1:0", o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { adm.Close() })
		adm.Health(func() error { return rtm.Ping(500 * time.Millisecond) })
		sources = append(sources, fleet.NewHTTPSource(id, adm.Addr()))
		admins[id] = adm.Addr()
	}

	coObs := obs.New("co")
	co := coordinator.New(coordinator.Config{
		Coordinators:     []proto.NodeID{"co"},
		HeartbeatPeriod:  beat,
		HeartbeatTimeout: suspect,
		Obs:              coObs,
	})
	rco, err := g.Start("co", func() rt.Config { return rt.Config{Handler: co, Obs: coObs} })
	if err != nil {
		t.Fatal(err)
	}
	serve("co", coObs, rco)

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
		serve(id, svObs, rsv)
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
	serve("cli", cliObs, rcli)

	// The recorder over HTTP sources, poll-driven for determinism: one
	// Poll is one round over every node.
	mon := fleet.New(fleet.Config{
		Sources:   sources,
		Interval:  4 * time.Second, // requests time out after 2s
		BundleDir: bundleDir,
	})
	for i := 0; i < 2; i++ {
		if dir := mon.Poll(time.Now()); dir != "" {
			t.Fatalf("healthy grid captured %s", dir)
		}
	}

	// Load: a burst of instant calls plus one slow timed call whose
	// server we kill mid-execution to provoke a requeue.
	const fast = 10
	var slowSeq proto.RPCSeq
	rcli.Do(func() {
		for i := 0; i < fast; i++ {
			cli.Submit("noop", nil, 0, 0)
		}
		slowSeq = cli.Submit("noop", nil, time.Second, 16)
	})

	// Learn which server holds the slow call from the coordinator's
	// dispatch span, then kill it abruptly.
	var victim proto.NodeID
	deadline := time.Now().Add(10 * time.Second)
	for victim == "" && time.Now().Before(deadline) {
		for _, sp := range coObs.Tracer().Dump() {
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
	mon.Poll(time.Now()) // one more healthy round: the pre-kill exposition
	rvictim.Close()
	// The victim's admin endpoint outlives its runtime; its uptime now
	// is later than any exposition scraped before the kill.
	killedUptime := uptime(t, getBody(t, "http://"+admins[victim]+"/metrics"))

	// Within two rounds the recorder must capture: the victim's admin
	// endpoint still answers, but /healthz reports the stopped event
	// loop — the liveness probe doing its one job.
	captured := mon.Poll(time.Now())
	if captured == "" {
		captured = mon.Poll(time.Now())
	}
	if !strings.Contains(captured, "node-"+string(victim)+"-down") {
		t.Fatalf("two rounds after the kill captured %q, want a node-%s-down bundle", captured, victim)
	}

	// All calls, including the requeued one, complete on the survivor.
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

	// Final post-mortem: the bundle assembled after completion holds
	// the slow call's whole story. The dead server's admin still serves
	// its span ring — exactly why bundles join every node's /tracez.
	final, err := mon.CaptureBundle("test-final")
	if err != nil {
		t.Fatal(err)
	}
	var timelines []obs.Timeline
	b, err := os.ReadFile(filepath.Join(final, "timelines.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &timelines); err != nil {
		t.Fatal(err)
	}
	var slow *obs.Timeline
	for _, tl := range timelines {
		if tl.Call.Seq == slowSeq {
			cp := tl
			slow = &cp
			break
		}
	}
	if slow == nil {
		t.Fatalf("bundle timelines miss the slow call (have %d timelines)", len(timelines))
	}
	for _, stage := range []obs.Stage{obs.StageSubmit, obs.StageEnqueue,
		obs.StageDispatch, obs.StageRequeue, obs.StageExec,
		obs.StageResult, obs.StageAck} {
		if !slow.Has(stage) {
			t.Errorf("bundle timeline misses %s: %v", stage, slow.Stages())
		}
	}

	// The victim's exposition is the one scraped before the kill.
	b, err = os.ReadFile(filepath.Join(final, "metrics", string(victim)+".txt"))
	if err != nil {
		t.Fatalf("bundle missing victim metrics: %v", err)
	}
	if got := uptime(t, string(b)); got >= killedUptime {
		t.Errorf("victim metrics scraped at uptime %.3fs, not before the kill (%.3fs)", got, killedUptime)
	}
	// And the statusz/pprof dumps rode along.
	if _, err := os.Stat(filepath.Join(final, "statusz", "co.json")); err != nil {
		t.Errorf("bundle missing coordinator statusz: %v", err)
	}
	if _, err := os.Stat(filepath.Join(final, "pprof", "co-goroutine.txt")); err != nil {
		t.Errorf("bundle missing coordinator goroutine profile: %v", err)
	}
}
