package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// quick returns quick-mode options with a fixed seed.
func quick() Options { return Options{Seed: 2004, Quick: true} }

func dump(t *testing.T, r Result) {
	t.Helper()
	if testing.Verbose() {
		for _, tb := range r.Tables {
			tb.Write(os.Stderr)
		}
	}
}

func parseDur(t *testing.T, s string) time.Duration {
	t.Helper()
	if s == "0" {
		return 0
	}
	// metrics.FormatDuration emits Go-parsable unit suffixes.
	d, err := time.ParseDuration(strings.ReplaceAll(s, "us", "µs"))
	if err != nil {
		t.Fatalf("cannot parse duration %q: %v", s, err)
	}
	return d
}

func TestFig4Shapes(t *testing.T) {
	r := Fig4(quick())
	dump(t, r)
	left := r.Tables[0]
	if left.Rows() == 0 {
		t.Fatal("fig4 left empty")
	}
	for row := 0; row < left.Rows(); row++ {
		opt := parseDur(t, left.Cell(row, 1))
		nbp := parseDur(t, left.Cell(row, 2))
		bp := parseDur(t, left.Cell(row, 3))
		// Pessimistic blocking must cost the most; optimistic the least.
		if bp < opt {
			t.Errorf("row %d: blocking pessimistic (%v) cheaper than optimistic (%v)", row, bp, opt)
		}
		if nbp < opt {
			t.Errorf("row %d: non-blocking pessimistic (%v) cheaper than optimistic (%v)", row, nbp, opt)
		}
		if bp < nbp {
			t.Errorf("row %d: blocking (%v) cheaper than non-blocking (%v)", row, bp, nbp)
		}
	}
	// Submission time must grow with size across the sweep.
	first := parseDur(t, left.Cell(0, 3))
	lastRow := left.Rows() - 1
	last := parseDur(t, left.Cell(lastRow, 3))
	if last <= first {
		t.Errorf("blocking submission time did not grow with size: %v -> %v", first, last)
	}
}

func TestFig5Shapes(t *testing.T) {
	r := Fig5(quick())
	dump(t, r)
	left, right := r.Tables[0], r.Tables[1]
	// Size sweep: biggest payload must take much longer than smallest,
	// and the Internet (bandwidth-bound) must be slower than the
	// confined cluster at large sizes.
	lr := left.Rows() - 1
	confSmall := parseDur(t, left.Cell(0, 1))
	confBig := parseDur(t, left.Cell(lr, 1))
	netBig := parseDur(t, left.Cell(lr, 2))
	if confBig <= confSmall {
		t.Errorf("confined replication did not grow with size: %v -> %v", confSmall, confBig)
	}
	if netBig <= confBig {
		t.Errorf("internet replication (%v) not slower than confined (%v) at large size", netBig, confBig)
	}
	// Count sweep: linear-ish growth, and real-life DBs faster at small
	// payloads (paper: replication time lower than confined).
	rr := right.Rows() - 1
	confN1 := parseDur(t, right.Cell(0, 1))
	confNBig := parseDur(t, right.Cell(rr, 1))
	if confNBig <= confN1 {
		t.Errorf("confined replication did not grow with task count: %v -> %v", confN1, confNBig)
	}
}

func TestFig6Shapes(t *testing.T) {
	r := Fig6(quick())
	dump(t, r)
	right := r.Tables[1]
	for row := 0; row < right.Rows(); row++ {
		fast := parseDur(t, right.Cell(row, 1))
		slow := parseDur(t, right.Cell(row, 2))
		if fast == 0 || slow == 0 {
			t.Fatalf("row %d: sync did not complete (fast=%v slow=%v)", row, fast, slow)
		}
		if slow <= fast {
			t.Errorf("row %d: coordinator-logs sync (%v) not slower than client-logs sync (%v)",
				row, slow, fast)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("fig7 sweep is slow")
	}
	r := Fig7(quick())
	dump(t, r)
	tb := r.Tables[0]
	base := parseDur(t, tb.Cell(0, 1))
	// Zero faults: overhead over the 60 s ideal must be modest (paper:
	// ~9-11 s) — allow up to 60 s of slack for heartbeat granularity.
	if base < 60*time.Second || base > 2*time.Minute {
		t.Errorf("no-fault execution time %v outside [60s, 120s]", base)
	}
	lastRow := tb.Rows() - 1
	srvHigh := parseDur(t, tb.Cell(lastRow, 1))
	coordHigh := parseDur(t, tb.Cell(lastRow, 2))
	if srvHigh <= base {
		t.Errorf("server faults did not slow execution: %v vs base %v", srvHigh, base)
	}
	// Paper's key claim: server faults hurt more than coordinator faults.
	if srvHigh <= coordHigh {
		t.Errorf("server-fault time (%v) not above coordinator-fault time (%v)", srvHigh, coordHigh)
	}
}

func TestFig8Shapes(t *testing.T) {
	r := Fig8(quick())
	dump(t, r)
	hist := r.Tables[0]
	total := 0
	nonzero := 0
	for row := 0; row < hist.Rows(); row++ {
		var n int
		if _, err := parseInt(hist.Cell(row, 1), &n); err != nil {
			t.Fatalf("bad count %q", hist.Cell(row, 1))
		}
		total += n
		if n > 0 {
			nonzero++
		}
	}
	if total != 200 {
		t.Errorf("histogram total %d, want 200", total)
	}
	if nonzero < 5 {
		t.Errorf("distribution too narrow: only %d non-empty buckets", nonzero)
	}
}

func parseInt(s string, out *int) (int, error) {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errBadInt
		}
		n = n*10 + int(c-'0')
	}
	*out = n
	return n, nil
}

var errBadInt = errorString("bad int")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestFig9Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("fig9 run is slow")
	}
	r := Fig9(quick())
	dump(t, r)
	lille, lri := r.Series[0], r.Series[1]
	if lille.Last() == 0 {
		t.Fatal("no tasks completed at lille")
	}
	// LRI must trail Lille but eventually converge via replication.
	if lri.Last() < lille.Last()*0.9 {
		t.Errorf("lri final count %v too far below lille %v", lri.Last(), lille.Last())
	}
	// The replica curve must show plateaux (discrete 60 s replication).
	if lri.Plateaus(1) == 0 {
		t.Error("lri curve shows no plateaus; replication should be discrete")
	}
}

func TestFig10CompletesDespiteCoordinatorFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 run is slow")
	}
	r := Fig10(quick())
	dump(t, r)
	client := r.Series[2]
	if client.Last() < 150 {
		t.Fatalf("client completed %v/150 tasks despite coordinator faults", client.Last())
	}
}

func TestFig11ProgressUnderPartitionedViews(t *testing.T) {
	if testing.Short() {
		t.Skip("fig11 run is slow")
	}
	r := Fig11(quick())
	dump(t, r)
	client := r.Series[2]
	if client.Last() < 150 {
		t.Fatalf("client completed %v/150 tasks under partitioned views", client.Last())
	}
}

func TestAblationRecoveryGuarantees(t *testing.T) {
	r := AblationRecovery(quick())
	dump(t, r)
	tb := r.Tables[0]
	// Rows: optimistic, non-blocking, blocking.
	var lost [3]int
	for row := 0; row < 3; row++ {
		if _, err := parseInt(tb.Cell(row, 3), &lost[row]); err != nil {
			t.Fatalf("bad cell %q", tb.Cell(row, 3))
		}
	}
	if lost[1] != 0 || lost[2] != 0 {
		t.Errorf("pessimistic logging silently lost calls: %v", lost)
	}
	if lost[0] == 0 {
		t.Error("optimistic logging lost nothing; the crash point no longer exercises the flush lag")
	}
}

func TestAblationHeartbeatShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("heartbeat sweep is slow")
	}
	r := AblationHeartbeat(quick())
	dump(t, r)
	tb := r.Tables[0]
	// Traffic must decrease as the period grows.
	first, last := tb.Cell(0, 3), tb.Cell(tb.Rows()-1, 3)
	var mFirst, mLast int
	if _, err := parseInt(first, &mFirst); err != nil {
		t.Fatalf("bad cell %q", first)
	}
	if _, err := parseInt(last, &mLast); err != nil {
		t.Fatalf("bad cell %q", last)
	}
	if mLast >= mFirst {
		t.Errorf("message count did not fall with slower heartbeats: %d -> %d", mFirst, mLast)
	}
}

// TestSchedCompareShapes asserts the scheduling subsystem's headline
// comparisons: under the heterogeneous-straggler fault workload,
// speculative execution and fastest-first matchmaking both beat FCFS
// on makespan and p95 latency.
func TestSchedCompareShapes(t *testing.T) {
	r := SchedCompare(quick())
	dump(t, r)

	policies := r.Tables[0]
	row := map[string]int{}
	for i := 0; i < policies.Rows(); i++ {
		row[policies.Cell(i, 0)] = i
	}
	makespan := func(p string) time.Duration { return parseDur(t, policies.Cell(row[p], 1)) }
	p95 := func(p string) time.Duration { return parseDur(t, policies.Cell(row[p], 3)) }

	for _, p := range []string{"fastest-first", "speculative"} {
		if makespan(p) >= makespan("fcfs") {
			t.Errorf("%s makespan %v not below fcfs %v", p, makespan(p), makespan("fcfs"))
		}
		if p95(p) >= p95("fcfs") {
			t.Errorf("%s p95 %v not below fcfs %v", p, p95(p), p95("fcfs"))
		}
	}
	var specIssued int
	fmt.Sscanf(policies.Cell(row["speculative"], 5), "%d", &specIssued)
	if specIssued == 0 {
		t.Error("speculative policy never issued a duplicate")
	}
}
