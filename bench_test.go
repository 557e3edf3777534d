// Benchmarks regenerating every figure of the paper's evaluation
// (figures 4-11) plus the ablation studies (see README.md). Each
// benchmark runs the corresponding experiment driver in quick mode and
// reports the headline measurement as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The experiments run on the virtual
// clock: b.N iterations re-run the full deterministic scenario; the
// reported metrics are virtual-time quantities (identical across
// iterations by construction), while ns/op reflects the real cost of
// simulating the scenario.
package rpcv

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rpcv/internal/experiments"
	"rpcv/internal/metrics"
	"rpcv/internal/msglog"
	"rpcv/internal/shared"
)

const benchSeed = 2004

func opts() experiments.Options {
	return experiments.Options{Seed: benchSeed, Quick: true}
}

// cellDur parses a duration cell out of a metrics table.
func cellDur(b *testing.B, t *metrics.Table, row, col int) float64 {
	b.Helper()
	s := t.Cell(row, col)
	if s == "0" {
		return 0
	}
	d, err := time.ParseDuration(strings.ReplaceAll(s, "us", "µs"))
	if err != nil {
		b.Fatalf("bad duration cell %q: %v", s, err)
	}
	return float64(d) / float64(time.Millisecond)
}

// BenchmarkFig4MessageLogging regenerates figure 4: RPC submission time
// for the three logging strategies. Reported metrics: mean submission
// time (ms) per strategy for 16 small calls.
func BenchmarkFig4MessageLogging(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig4(opts())
	}
	left := res.Tables[0]
	b.ReportMetric(cellDur(b, left, 0, 1), "ms-optimistic")
	b.ReportMetric(cellDur(b, left, 0, 2), "ms-nonblocking")
	b.ReportMetric(cellDur(b, left, 0, 3), "ms-blocking")
}

// BenchmarkFig5Replication regenerates figure 5: coordinator
// replication time, confined vs Internet, size and count sweeps.
func BenchmarkFig5Replication(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig5(opts())
	}
	left := res.Tables[0]
	last := left.Rows() - 1
	b.ReportMetric(cellDur(b, left, last, 1), "ms-confined-big")
	b.ReportMetric(cellDur(b, left, last, 2), "ms-internet-big")
}

// BenchmarkFig6Synchronization regenerates figure 6: client/coordinator
// synchronization time by log location.
func BenchmarkFig6Synchronization(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig6(opts())
	}
	right := res.Tables[1]
	b.ReportMetric(cellDur(b, right, 0, 1), "ms-client-logs")
	b.ReportMetric(cellDur(b, right, 0, 2), "ms-coordinator-logs")
}

// BenchmarkFig7FaultSweep regenerates figure 7: benchmark execution
// time vs fault frequency, faulty servers vs faulty coordinators.
func BenchmarkFig7FaultSweep(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig7(opts())
	}
	t := res.Tables[0]
	last := t.Rows() - 1
	b.ReportMetric(cellDur(b, t, 0, 1)/1000, "s-nofault")
	b.ReportMetric(cellDur(b, t, last, 1)/1000, "s-servers-10pm")
	b.ReportMetric(cellDur(b, t, last, 2)/1000, "s-coords-10pm")
}

// BenchmarkFig8Workload regenerates figure 8: the Alcatel task-duration
// distribution (pure workload generation; no simulation).
func BenchmarkFig8Workload(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig8(opts())
	}
	_ = res
}

// BenchmarkFig9ReferenceExecution regenerates figure 9: the Alcatel
// run without faults; reports the final counts at primary and replica.
func BenchmarkFig9ReferenceExecution(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig9(opts())
	}
	b.ReportMetric(res.Series[0].Last(), "tasks-lille")
	b.ReportMetric(res.Series[1].Last(), "tasks-lri")
}

// BenchmarkFig10CoordinatorFaults regenerates figure 10: two
// consecutive coordinator faults; reports the client's completed count
// (the run must finish despite both faults).
func BenchmarkFig10CoordinatorFaults(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig10(opts())
	}
	b.ReportMetric(res.Series[2].Last(), "tasks-client")
}

// BenchmarkFig11Partition regenerates figure 11: progress under
// inconsistent views (servers on LRI, client pinned to Lille).
func BenchmarkFig11Partition(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig11(opts())
	}
	b.ReportMetric(res.Series[2].Last(), "tasks-client")
}

// BenchmarkAblationHeartbeat sweeps the heartbeat period (suspicion at
// 6x) under server faults: reactivity vs traffic.
func BenchmarkAblationHeartbeat(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationHeartbeat(opts())
	}
	t := res.Tables[0]
	b.ReportMetric(cellDur(b, t, 0, 2)/1000, "s-fastest-beat")
	b.ReportMetric(cellDur(b, t, t.Rows()-1, 2)/1000, "s-slowest-beat")
}

// BenchmarkAblationReplPeriod sweeps the passive-replication period and
// reports replica staleness.
func BenchmarkAblationReplPeriod(b *testing.B) {
	if testing.Short() {
		b.Skip("three full real-life runs")
	}
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationReplicationPeriod(opts())
	}
	_ = res
}

// BenchmarkAblationRecovery compares double-crash recovery across the
// logging strategies (the paper's closing argument for non-blocking
// pessimistic logging).
func BenchmarkAblationRecovery(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationRecovery(opts())
	}
	t := res.Tables[0]
	// Rows: optimistic, non-blocking, blocking; col 3 = silently lost
	// (completed pre-crash yet unrecoverable) — the decisive metric.
	var lost [3]float64
	for r := 0; r < 3; r++ {
		var n int
		if _, err := parseIntCell(t.Cell(r, 3), &n); err != nil {
			b.Fatalf("bad cell %q", t.Cell(r, 3))
		}
		lost[r] = float64(n)
	}
	b.ReportMetric(lost[0], "lost-optimistic")
	b.ReportMetric(lost[1], "lost-nonblocking")
	b.ReportMetric(lost[2], "lost-blocking")
}

func parseIntCell(s string, out *int) (int, error) {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errBadCell
		}
		n = n*10 + int(c-'0')
	}
	*out = n
	return n, nil
}

var errBadCell = errorString("bad int cell")

type errorString string

func (e errorString) Error() string { return string(e) }

// BenchmarkSubmissionThroughput is a micro-benchmark of the simulated
// client/coordinator submission path itself (how many virtual RPC
// submissions per real second the framework sustains).
func BenchmarkSubmissionThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig4SubmissionProbe(benchSeed, msglog.Optimistic, 64, 300)
	}
}

// BenchmarkPollRound measures one result-collection round — the
// client's pollNow, the Poll through the binary codec, the
// coordinator's handlePoll and the (empty) reply — on hand-driven envs
// (pollround_test.go), in the steady state of a long open-loop session:
// `held` results delivered long ago, 32 calls in flight. Run with
// -benchmem: B/op must not grow with held.
func BenchmarkPollRound(b *testing.B) {
	for _, held := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("held=%d", held), func(b *testing.B) {
			g := heavyShaped(b, held)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.round(b)
			}
		})
	}
}

// BenchmarkIdleCall measures one blocking echo call on an idle
// loopback-TCP grid whose server pull and result poll beat every 200 ms
// (idlecall_test.go), reported as ms/call: the work and four loopback
// hops, not the periods.
func BenchmarkIdleCall(b *testing.B) {
	s := idleGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idleCall(b, s)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/call")
}

// BenchmarkBusyServers keeps four one-at-a-time servers saturated with
// 20 ms sleep calls, 32 in flight, on loopback TCP at the benchmark's
// 20 ms beat and 250 ms suspicion timeout (busyserver_test.go), with no
// fault anywhere. Reported: calls/s — four bodies at a time is 200 —
// and executions/call, which is 1 when busy servers are read as busy.
func BenchmarkBusyServers(b *testing.B) {
	g := bootTCPGrid(b, tcpGridSpec{user: "busybench", period: busyBeat, timeout: busyTimeout,
		servers: 4, parallelism: 1, services: shared.BuiltinServices()})
	b.Cleanup(g.close)
	const calls = 320
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.callAll(b, calls, 32, "sleep", "20ms")
	}
	b.StopTimer()
	total := float64(calls * b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "calls/s")
	b.ReportMetric(float64(g.serverStats().Executed)/total, "executions/call")
}
