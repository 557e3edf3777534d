package conform

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/coordinator"
	"rpcv/internal/grid"
	"rpcv/internal/msglog"
	"rpcv/internal/netmodel"
	"rpcv/internal/obs"
	"rpcv/internal/obs/fleet"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/server"
	"rpcv/internal/store"
)

// Harness timing: aggressive detector settings so scenario timelines
// measured in hundreds of milliseconds exercise full suspicion and
// recovery cycles.
const (
	beat    = 25 * time.Millisecond
	suspect = 250 * time.Millisecond
)

// runCell boots one real loopback cluster configured as cell, drives
// the scenario's deterministic workload through the fault timeline,
// and grades the delivered result set against the analytic
// expectation.
func runCell(cell Cell, sc *Scenario, opts Options) CellVerdict {
	v := CellVerdict{Cell: cell.Label(), Scenario: sc.Name, Verdict: "pass"}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := time.Now()
	fail := func(format string, args ...any) CellVerdict {
		v.Verdict = "error"
		v.Detail = fmt.Sprintf(format, args...)
		v.Elapsed = time.Since(start)
		return v
	}
	diskRoot, err := os.MkdirTemp("", "rpcv-sim-*")
	if err != nil {
		return fail("mkdir: %v", err)
	}
	defer os.RemoveAll(diskRoot)

	// Every inter-node byte crosses a per-directed-link TCP proxy so
	// the timeline can sever and black-hole each direction
	// independently.
	rules := netmodel.NewRules()
	g := grid.New(grid.Options{Rules: rules, Logf: logf})
	defer g.Close()
	nCoords, nServers, nClients := sc.Coords, sc.Servers, sc.Clients

	// The coordinators form one ring.
	var ring []proto.NodeID
	for i := 0; i < nCoords; i++ {
		ring = append(ring, proto.NodeID(fmt.Sprintf("co%d", i)))
	}

	// Observability plane: only assembled when a post-mortem artifact
	// directory is wanted — the flight recorder reads the shared
	// registry and every incarnation's span ring.
	var reg *obs.Registry
	var obsMu sync.Mutex
	var observers []*obs.Observer
	observer := func(id proto.NodeID) *obs.Observer {
		if reg == nil {
			return nil
		}
		ob := obs.NewWith(id, reg)
		obsMu.Lock()
		observers = append(observers, ob)
		obsMu.Unlock()
		return ob
	}
	if opts.ArtifactDir != "" {
		reg = obs.NewRegistry()
	}

	plans := map[string]*store.FaultPlan{}
	coords := map[string]*coordinator.Coordinator{} // each coordinator's current incarnation
	var coordsMu sync.Mutex

	// Coordinators: the cell's store under a fault-injection wrapper
	// (interposed after the WAL's own dir-refusal check).
	for i := 0; i < nCoords; i++ {
		name := fmt.Sprintf("co%d", i)
		id := proto.NodeID(name)
		plan := &store.FaultPlan{}
		plans[name] = plan
		diskDir := ""
		if cell.Store != "memory" {
			diskDir = filepath.Join(diskRoot, name)
		}
		if _, err := g.Start(id, func() rt.Config {
			co := coordinator.New(coordinator.Config{
				Coordinators:      ring,
				HeartbeatPeriod:   beat,
				HeartbeatTimeout:  suspect,
				ReplicationPeriod: 150 * time.Millisecond,
				Obs:               observer(id),
			})
			coordsMu.Lock()
			coords[name] = co
			coordsMu.Unlock()
			plan.Heal() // a restarted node's disk comes back healthy
			return rt.Config{
				Handler: co, DiskDir: diskDir, Seed: opts.Seed + int64(i),
				WrapStore: func(s store.Store) store.Store { return store.WithFaults(s, plan) },
			}
		}); err != nil {
			return fail("boot %s: %v", name, err)
		}
	}

	// Servers: in-memory state (the paper's servers are stateless
	// executors), attached to the whole ring.
	services := map[string]server.Service{
		"conform": func(p []byte) ([]byte, error) { return workOutput(p), nil },
	}
	for i := 0; i < nServers; i++ {
		id := proto.NodeID(fmt.Sprintf("sv%d", i))
		if _, err := g.Start(id, func() rt.Config {
			sv := server.New(server.Config{
				Coordinators:     ring,
				HeartbeatPeriod:  beat,
				SuspicionTimeout: suspect,
				Services:         services,
			})
			return rt.Config{Handler: sv, Seed: opts.Seed + 100 + int64(i), Obs: observer(id)}
		}); err != nil {
			return fail("boot %s: %v", id, err)
		}
	}

	// Clients: the workload drivers. Each collects every first-seen
	// result; the run is done when the union matches the expectation
	// or the scenario watchdog fires.
	want := expectedSet(sc)
	perClient := sc.Calls / sc.Clients
	target := perClient * nClients
	var (
		resMu     sync.Mutex
		delivered = map[proto.CallID]string{}
		twice     int // results handed to the application a second time
		done      = make(chan struct{})
		once      sync.Once
	)
	record := func(res proto.Result, _ time.Time) {
		resMu.Lock()
		if _, ok := delivered[res.Call]; ok {
			twice++
		} else {
			delivered[res.Call] = resultLine(res.Call, res.Output, res.Err)
		}
		n := len(delivered)
		resMu.Unlock()
		if n >= target {
			once.Do(func() { close(done) })
		}
	}
	clis := make([]*client.Client, nClients)
	for i := 0; i < nClients; i++ {
		id := proto.NodeID(fmt.Sprintf("cli%d", i))
		cli := client.New(client.Config{
			User:             proto.UserID(fmt.Sprintf("u%d", i)),
			Session:          proto.SessionID(i + 1),
			Coordinators:     ring,
			PollPeriod:       beat,
			SuspicionTimeout: suspect,
			Logging:          msglog.NonBlockingPessimistic,
			OnResult:         record,
			Obs:              observer(id),
		})
		clis[i] = cli
		if _, err := g.Start(id, func() rt.Config {
			return rt.Config{Handler: cli, Seed: opts.Seed + 200 + int64(i)}
		}); err != nil {
			return fail("boot %s: %v", id, err)
		}
	}

	// The fault timeline, on its own clock from workload start.
	noteFault := func(ev Event, detail string) {
		v.Faults++
		logf("sim: %s/%s: at %v %s %s", sc.Name, cell.Label(), ev.At, ev.Kind, detail)
	}
	stopTimeline := make(chan struct{})
	var timelineWG sync.WaitGroup
	t0 := time.Now()
	timelineWG.Add(1)
	go func() {
		defer timelineWG.Done()
		for _, ev := range sc.Events {
			select {
			case <-stopTimeline:
				return
			case <-time.After(time.Until(t0.Add(ev.At))):
			}
			applyEvent(ev, rules, g, plans, noteFault)
		}
	}()

	// The workload: each client issues its share on a fixed cadence
	// chosen so submissions are still in flight when every fault
	// lands.
	gap := workGap(sc)
	var driverWG sync.WaitGroup
	stopDrivers := make(chan struct{})
	for i := 0; i < nClients; i++ {
		cli := clis[i]
		user := proto.UserID(fmt.Sprintf("u%d", i))
		session := proto.SessionID(i + 1)
		id := proto.NodeID(fmt.Sprintf("cli%d", i))
		driverWG.Add(1)
		go func() {
			defer driverWG.Done()
			for s := 0; s < perClient; s++ {
				select {
				case <-stopDrivers:
					return
				default:
				}
				if rtm := g.Node(id); rtm != nil {
					params := workParams(user, session, proto.RPCSeq(s+1))
					rtm.Do(func() {
						cli.Submit("conform", params, 0, 0)
					})
				}
				select {
				case <-stopDrivers:
					return
				case <-time.After(gap):
				}
			}
		}()
	}

	select {
	case <-done:
	case <-time.After(sc.Timeout):
	}
	close(stopDrivers)
	close(stopTimeline)
	driverWG.Wait()
	timelineWG.Wait()

	// Grade: exactly the expected (CallID -> result) set, nothing
	// lost, nothing diverged.
	resMu.Lock()
	got := make(map[proto.CallID]string, len(delivered))
	for k, l := range delivered {
		got[k] = l
	}
	dupes := twice
	resMu.Unlock()
	lines := make([]string, 0, len(got))
	for _, l := range got {
		lines = append(lines, l)
	}
	v.Delivered, v.Expected = len(got), target
	v.Digest = digestOf(lines)
	v.Elapsed = time.Since(start)
	missing := 0
	for call, wl := range want {
		gl, ok := got[call]
		if !ok {
			missing++
			continue
		}
		if gl != wl {
			v.Verdict = "divergent"
			v.Detail = fmt.Sprintf("call %s/%d/%d delivered a diverging result", call.User, call.Session, call.Seq)
		}
	}
	if v.Verdict == "pass" {
		for call := range got {
			if _, ok := want[call]; !ok {
				v.Verdict = "divergent"
				v.Detail = fmt.Sprintf("unexpected call %s/%d/%d delivered", call.User, call.Session, call.Seq)
				break
			}
		}
	}
	if v.Verdict == "pass" && dupes > 0 {
		// The coordinator may send a result more than once (a late reply
		// and a poll's reply can cross); the application sees it once.
		v.Verdict = "divergent"
		v.Detail = fmt.Sprintf("%d results delivered to the application twice", dupes)
	}
	if v.Verdict == "pass" && missing > 0 {
		v.Verdict = "lost-results"
		v.Detail = fmt.Sprintf("%d of %d results never delivered", missing, target)
	}
	if v.Verdict == "pass" && v.Digest != expectedDigest(sc) {
		v.Verdict = "divergent"
		v.Detail = "digest mismatch against analytic expectation"
	}
	if v.Verdict == "pass" {
		// State is bounded, whatever the timeline did: once the clients'
		// next polls have acknowledged what they hold, no live
		// coordinator's job table — its own sessions' or the copies it
		// keeps for another ring — is larger than the number of calls
		// without an acknowledged result.
		unacked := func() (n int) {
			for i, cli := range clis {
				if rtm := g.Node(proto.NodeID(fmt.Sprintf("cli%d", i))); rtm != nil {
					rtm.Do(func() { n += cli.StatsNow().Tracked })
				}
			}
			return n
		}
		held := func() (worst string, n int) {
			for name := range plans {
				coordsMu.Lock()
				co := coords[name]
				coordsMu.Unlock()
				rtm := g.Node(proto.NodeID(name))
				if rtm == nil {
					continue
				}
				var jobs int
				rtm.Do(func() { jobs = co.DB().Len() })
				if jobs > n {
					worst, n = name, jobs
				}
			}
			return worst, n
		}
		deadline := time.Now().Add(3 * time.Second)
		for {
			limit := unacked()
			name, jobs := held()
			if jobs <= limit {
				break
			}
			if time.Now().After(deadline) {
				v.Verdict = "uncollected"
				v.Detail = fmt.Sprintf("%s still holds %d job records with %d calls unacknowledged", name, jobs, limit)
				break
			}
			time.Sleep(beat)
		}
	}

	// Post-mortem: on any failed verdict with an artifact directory,
	// capture one flight bundle of the cell — every node's span ring and
	// the shared registry's metrics — and always persist the framed
	// fault/verdict artifact.
	if reg != nil && v.Verdict != "pass" {
		cellSource := &fleet.FuncSource{
			Node: "cell",
			Metrics: func() ([]byte, error) {
				var b bytes.Buffer
				err := reg.WritePrometheus(&b)
				return b.Bytes(), err
			},
			Trace: func() []obs.Span {
				obsMu.Lock()
				defer obsMu.Unlock()
				var out []obs.Span
				for _, ob := range observers {
					out = append(out, ob.Tracer().Dump()...)
				}
				return out
			},
		}
		rec := fleet.New(fleet.Config{Sources: []fleet.Source{cellSource}, BundleDir: opts.ArtifactDir, Logf: logf})
		reason := fmt.Sprintf("sim %s %s %s", sc.Name, sanitizeLabel(cell.Label()), v.Verdict)
		if path, err := rec.CaptureBundle(reason); err == nil {
			v.Bundle = path
		} else {
			logf("sim: bundle capture failed: %v", err)
		}
	}
	return v
}

// applyEvent injects one timeline fault into the running grid.
func applyEvent(ev Event, rules *netmodel.Rules, g *grid.Grid,
	plans map[string]*store.FaultPlan, note func(Event, string)) {
	id := proto.NodeID(ev.Node)
	switch ev.Kind {
	case "block":
		rules.BlockLink(id, proto.NodeID(ev.Peer))
		note(ev, fmt.Sprintf("partition %s -> %s", ev.Node, ev.Peer))
	case "heal":
		rules.HealLink(id, proto.NodeID(ev.Peer))
		note(ev, fmt.Sprintf("heal %s -> %s", ev.Node, ev.Peer))
	case "crash":
		g.Kill(id)
		note(ev, "crash "+ev.Node)
	case "restart":
		if err := g.Restart(id); err != nil {
			note(ev, fmt.Sprintf("restart %s FAILED: %v", ev.Node, err))
			return
		}
		note(ev, "restart "+ev.Node)
	case "disk":
		plan := plans[ev.Node]
		if plan == nil {
			note(ev, "disk fault on storeless node "+ev.Node+" ignored")
			return
		}
		switch ev.Op {
		case "fail":
			plan.FailCommits(ev.N)
			note(ev, fmt.Sprintf("disk %s: fail commit #%d then stay broken", ev.Node, ev.N))
		case "stall":
			plan.StallCommits(ev.Dur)
			note(ev, fmt.Sprintf("disk %s: stall every commit %v", ev.Node, ev.Dur))
		case "torn":
			plan.TornWrites(ev.N)
			note(ev, fmt.Sprintf("disk %s: tear write #%d", ev.Node, ev.N))
		case "heal":
			plan.Heal()
			note(ev, "disk "+ev.Node+": healed")
		}
	case "stall":
		if rtm := g.Node(id); rtm != nil {
			rtm.StallLoops(ev.Dur)
			note(ev, fmt.Sprintf("stall %s event loop %v (TCP stays up)", ev.Node, ev.Dur))
		} else {
			note(ev, "stall "+ev.Node+" skipped: node is down")
		}
	case "skew":
		if rtm := g.Node(id); rtm != nil {
			rtm.SetClockOffset(ev.Dur)
			note(ev, fmt.Sprintf("skew %s clock by %v", ev.Node, ev.Dur))
		} else {
			note(ev, "skew "+ev.Node+" skipped: node is down")
		}
	}
}

// sanitizeLabel turns a cell label into a filename fragment.
func sanitizeLabel(label string) string {
	return strings.NewReplacer("=", "-", " ", "_").Replace(label)
}
