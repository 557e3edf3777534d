package conform

import (
	"strings"
	"testing"
	"time"

	"rpcv/internal/proto"
)

// ---------------------------------------------------------------------
// Scenario-file parser
// ---------------------------------------------------------------------

func TestParseDefaultSuite(t *testing.T) {
	s, err := ParseSuite(DefaultSuite)
	if err != nil {
		t.Fatalf("embedded default suite must parse: %v", err)
	}
	if s.Name != "default" {
		t.Fatalf("suite name = %q", s.Name)
	}
	wantCells := []string{
		"store=wal policy=fcfs",
		"store=memory policy=fcfs", // -quick's second cell
		"store=wal policy=fastest-first",
		"store=wal policy=deadline",
		"store=wal policy=speculative",
	}
	if len(s.Cells) != len(wantCells) {
		t.Fatalf("default suite has %d cells, want %d", len(s.Cells), len(wantCells))
	}
	for i, want := range wantCells {
		if got := s.Cells[i].Label(); got != want {
			t.Errorf("cell %d = %q, want %q", i, got, want)
		}
	}
	if len(s.Scenarios) != 9 {
		t.Fatalf("default suite has %d scenarios, want 9", len(s.Scenarios))
	}
	// Every fault kind of the taxonomy appears somewhere in the suite.
	kinds := map[string]bool{}
	for _, sc := range s.Scenarios {
		for _, ev := range sc.Events {
			kinds[ev.Kind] = true
		}
	}
	for _, want := range []string{"block", "heal", "disk", "crash", "restart", "stall", "skew"} {
		if !kinds[want] {
			t.Errorf("default suite exercises no %q fault", want)
		}
	}
	ow := s.Scenario("oneway-partition")
	if ow == nil {
		t.Fatal("oneway-partition scenario missing")
	}
	if ow.Events[0].Kind != "block" || ow.Events[0].Node != "co0" || ow.Events[0].Peer != "sv0" {
		t.Fatalf("oneway-partition first event = %+v", ow.Events[0])
	}
	if ow.Timeout != 30*time.Second || ow.Clients != 2 || ow.Servers != 3 {
		t.Fatalf("defaults not applied: %+v", ow)
	}
}

func TestParseSuiteRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"no cells":          "suite x\nscenario a\nend\n",
		"no scenarios":      "suite x\ncell store=wal\n",
		"unknown directive": "suite x\nbogus\n",
		"unknown cell key":  "suite x\ncell color=red\n",
		"unknown store":     "suite x\ncell store=floppy\n",
		"removed store":     "suite x\ncell store=files\nscenario a\nend\n",
		"removed wire key":  "suite x\ncell wire=binary\nscenario a\nend\n",
		"removed transport": "suite x\nmatrix transport=pooled\nscenario a\nend\n",
		"removed loops key": "suite x\ncell loops=2\nscenario a\nend\n",
		"unclosed scenario": "suite x\ncell store=wal\nscenario a\n",
		"bad event node":    "suite x\ncell store=wal\nscenario a\nat 1ms crash xx9\nend\n",
		"node out of range": "suite x\ncell store=wal\nscenario a\ncoords 1\nat 1ms crash co5\nend\n",
		"self block":        "suite x\ncell store=wal\nscenario a\nat 1ms block co0 -> co0\nend\n",
		"bad duration":      "suite x\ncell store=wal\nscenario a\nat soon crash co0\nend\n",
		"negative at":       "suite x\ncell store=wal\nscenario a\nat -5ms crash co0\nend\n",
		"disk on client":    "suite x\ncell store=wal\nscenario a\nat 1ms disk cli0 fail 1\nend\n",
		"retired shards":    "suite x\ncell store=wal\nscenario a\nshards 2\nend\n",
		"dup scenario":      "suite x\ncell store=wal\nscenario a\nend\nscenario a\nend\n",
		"calls below grid":  "suite x\ncell store=wal\nscenario a\nclients 4\ncalls 2\nend\n",
		"matrix no values":  "suite x\nmatrix store=\n",
		"giant input":       "suite x\n" + strings.Repeat("# pad\n", 200_000),
	}
	for name, src := range cases {
		if _, err := ParseSuite(src); err == nil {
			t.Errorf("%s: malformed input parsed without error", name)
		}
	}
}

func TestParseMatrixCrossProduct(t *testing.T) {
	s, err := ParseSuite("suite x\nmatrix store=wal,memory policy=fcfs,deadline,speculative\nscenario a\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cells) != 6 {
		t.Fatalf("2x3 matrix expanded to %d cells", len(s.Cells))
	}
	seen := map[string]bool{}
	for _, c := range s.Cells {
		seen[c.Store+"/"+c.Policy] = true
	}
	if len(seen) != 6 {
		t.Fatalf("matrix cells not distinct: %v", seen)
	}
	// Duplicate cells collapse.
	s2, err := ParseSuite("suite x\ncell store=wal\ncell store=wal\nscenario a\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Cells) != 1 {
		t.Fatalf("duplicate cell not collapsed: %d", len(s2.Cells))
	}
}

// ---------------------------------------------------------------------
// Digest plane
// ---------------------------------------------------------------------

func TestDigestIsOrderInvariant(t *testing.T) {
	a := []string{"x|1|1|aa|", "y|2|2|bb|", "z|3|3|cc|"}
	b := []string{"z|3|3|cc|", "x|1|1|aa|", "y|2|2|bb|"}
	if digestOf(a) != digestOf(b) {
		t.Fatal("digest depends on delivery order")
	}
	if digestOf(a) == digestOf(a[:2]) {
		t.Fatal("digest ignores missing lines")
	}
}

func TestExpectedSetMatchesWorkload(t *testing.T) {
	sc := &Scenario{Clients: 3, Calls: 30}
	if err := sc.normalize(); err != nil {
		t.Fatal(err)
	}
	want := expectedSet(sc)
	if len(want) != 30 {
		t.Fatalf("expected set has %d entries, want 30", len(want))
	}
	call := proto.CallID{User: "u1", Session: 2, Seq: 5}
	line, ok := want[call]
	if !ok {
		t.Fatalf("call %v missing from expectation", call)
	}
	// The line must be exactly what a server computing the workload
	// function would cause the client to record.
	exp := resultLine(call, workOutput(workParams("u1", 2, 5)), "")
	if line != exp {
		t.Fatalf("expectation line = %q, want %q", line, exp)
	}
}

// ---------------------------------------------------------------------
// Frozen fault regressions: each pins one chaos scenario the matrix
// uncovered development bugs in, at reduced scale so the whole set
// stays test-suite friendly. A regression in partition handling, WAL
// fault recovery, stall tolerance or skew tolerance turns exactly one
// of these red.
// ---------------------------------------------------------------------

// runFrozen parses an inline suite and requires every cell to pass.
func runFrozen(t *testing.T, src string) *Report {
	t.Helper()
	suite, err := ParseSuite(src)
	if err != nil {
		t.Fatalf("frozen suite must parse: %v", err)
	}
	rep, err := Run(suite, Options{Seed: 7, Parallel: 1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, v := range rep.Verdicts {
		if v.Verdict != "pass" {
			t.Errorf("%s / %s: %s (%s) delivered %d/%d",
				v.Scenario, v.Cell, v.Verdict, v.Detail, v.Delivered, v.Expected)
		}
	}
	if !rep.Passed {
		t.Fatal("frozen scenario regressed")
	}
	return rep
}

// TestFrozenOneWayPartition: the coordinator can hear sv0 but not
// reach it. Assignments black-hole while heartbeats keep arriving, so
// only the server-side suspicion path can requeue the stranded tasks.
func TestFrozenOneWayPartition(t *testing.T) {
	runFrozen(t, `suite frozen
cell store=wal
scenario oneway
  servers 3
  calls 24
  at 100ms block co0 -> sv0
  at 600ms heal co0 -> sv0
end
`)
}

// TestFrozenDiskTornCrashRestart: a torn write mid-group-commit, a
// sticky fsync failure, then a crash and a restart on the same WAL
// directory. Previously untested in-tree: torn-write recovery at
// cluster level, with clients resubmitting across the restart.
func TestFrozenDiskTornCrashRestart(t *testing.T) {
	runFrozen(t, `suite frozen
cell store=wal
scenario torn-disk
  calls 16
  at 80ms  disk co0 torn 1
  at 150ms disk co0 stall 20ms
  at 250ms disk co0 fail 1
  at 400ms disk co0 heal
  at 450ms crash co0
  at 600ms restart co0
end
`)
}

// TestFrozenStalledCoordinator: the coordinator freezes without dying
// — TCP accepts, the loop does nothing — then resumes. Stalled-not-dead
// must look exactly like slow, never like split-brain.
func TestFrozenStalledCoordinator(t *testing.T) {
	runFrozen(t, `suite frozen
cell store=wal
scenario stalled
  calls 16
  at 100ms stall co0 500ms
end
`)
}

// TestFrozenClockSkew: the coordinator's clock jumps two seconds
// forward (every server instantly "silent" by its skewed detector),
// then back. Timeouts may churn assignments; results may not change.
func TestFrozenClockSkew(t *testing.T) {
	runFrozen(t, `suite frozen
cell store=wal
scenario skew
  calls 16
  at 100ms skew co0 2s
  at 600ms skew co0 0s
  timeout 20s
end
`)
}

// The three ways a fault can strand a late reply (internal/coordinator:
// standing work offers, result subscriptions), at reduced scale.

// TestFrozenPushedIntoPartition: sv0 keeps pulling and so keeps a
// standing offer, but nothing the coordinator sends reaches it. Calls
// pushed into the hole must complete on sv1 after a requeue.
func TestFrozenPushedIntoPartition(t *testing.T) {
	runFrozen(t, `suite frozen
cell store=wal
cell store=memory policy=fastest-first
scenario pushed-into-partition
  servers 2
  calls 24
  at 100ms block co0 -> sv0
  at 700ms heal co0 -> sv0
end
`)
}

// TestFrozenStalledWithOffers: the coordinator stalls past the
// suspicion timeout holding offers and subscriptions, with calls queued
// behind the stall. On resume the offers are stale and must not be
// spent; the servers' next pulls carry the backlog.
func TestFrozenStalledWithOffers(t *testing.T) {
	runFrozen(t, `suite frozen
cell store=wal
scenario stalled-with-offers
  calls 24
  gap 20ms
  at 150ms stall co0 500ms
end
`)
}

// TestFrozenPushedToDeafClient: cli0 is subscribed but stops hearing
// the coordinator. Pushed results are lost like any reply; the first
// poll after the heal delivers them, and the application sees each
// once.
func TestFrozenPushedToDeafClient(t *testing.T) {
	runFrozen(t, `suite frozen
cell store=wal
scenario pushed-to-deaf-client
  calls 24
  at 100ms block co0 -> cli0
  at 600ms heal co0 -> cli0
end
`)
}

// TestFrozenCrossConfigAgreement is the conformance core at smoke
// scale: two cells differing in store and scheduling policy run the
// same faulted workload and must land on one digest.
func TestFrozenCrossConfigAgreement(t *testing.T) {
	rep := runFrozen(t, `suite frozen
cell store=wal policy=fastest-first
cell store=memory
scenario faulted
  calls 20
  at 100ms block co0 -> sv0
  at 150ms disk co0 stall 10ms
  at 400ms heal co0 -> sv0
  at 400ms disk co0 heal
end
`)
	if len(rep.Verdicts) != 2 {
		t.Fatalf("expected 2 verdicts, got %d", len(rep.Verdicts))
	}
	if rep.Verdicts[0].Digest != rep.Verdicts[1].Digest {
		t.Fatalf("cells disagree: %s vs %s", rep.Verdicts[0].Digest, rep.Verdicts[1].Digest)
	}
}

// ---------------------------------------------------------------------
// Quick-mode selection
// ---------------------------------------------------------------------

func TestQuickSelectionPrefersFaultScenarios(t *testing.T) {
	suite, err := ParseSuite(DefaultSuite)
	if err != nil {
		t.Fatal(err)
	}
	cells, scenarios := selectMatrix(suite, Options{Quick: true})
	if len(cells) != quickCellCount {
		t.Fatalf("quick selects %d cells, want %d", len(cells), quickCellCount)
	}
	if len(scenarios) != quickScenarioCount {
		t.Fatalf("quick selects %d scenarios, want %d", len(scenarios), quickScenarioCount)
	}
	for _, sc := range scenarios {
		if len(sc.Events) == 0 {
			t.Errorf("quick picked faultless scenario %q", sc.Name)
		}
	}
}

func TestSelectMatrixFilters(t *testing.T) {
	suite, err := ParseSuite(DefaultSuite)
	if err != nil {
		t.Fatal(err)
	}
	cells, scenarios := selectMatrix(suite, Options{
		Cells:     []string{"store=memory"},
		Scenarios: []string{"disk-fault"},
	})
	if len(cells) != 1 || cells[0].Store != "memory" {
		t.Fatalf("cell filter selected %v", cells)
	}
	if len(scenarios) != 1 || scenarios[0].Name != "disk-fault" {
		t.Fatalf("scenario filter selected %d scenarios", len(scenarios))
	}
}
