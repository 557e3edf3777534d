package experiments

import (
	"time"

	"rpcv/internal/cluster"
	"rpcv/internal/faultgen"
	"rpcv/internal/metrics"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
)

// SchedCompare measures the scheduling subsystem beyond the
// paper: batch makespan and per-call latency quantiles for each policy
// of internal/sched on a heterogeneous population (every fourth server
// 10x slow, 4 concurrent slots each) under a figure-7-style per-server
// Poisson fault load. A warmup batch runs first, unmeasured, so the
// speed estimator starts the measured batch knowing its servers — the
// steady state of a long-running grid, and the regime the
// fastest-first gate is designed for.
//
// Expected shape: "fastest-first" and "speculative" beat "fcfs" on
// both makespan and p95, because under FCFS each straggler captures a
// full slot-batch of tasks and holds them for 10x their nominal time
// (>5% of the batch — squarely inside p95), while fastest-first
// refuses stragglers work the fast pool would finish sooner and
// speculative races duplicates against them. "deadline" reorders the
// queue by the calls' soft deadlines and tracks fcfs on aggregate
// numbers here (the deadlines follow submission order).
func SchedCompare(opts Options) Result {
	opts.applyDefaults()

	policies := []string{"fcfs", "fastest-first", "deadline", "speculative"}
	// The batch must outlast a straggler's slot-custody several times
	// over, or the makespan is set by crash-recovery chains instead of
	// scheduling (36 tasks per server ~ 3 custody generations).
	tasks, servers := 576, 16
	if opts.Quick {
		tasks, servers = 96, 8
	}

	policyTable := metrics.NewTable(
		"Scheduling policies: makespan and latency quantiles, heterogeneous servers (every 4th 10x slow) under Poisson server faults",
		"policy", "makespan", "p50", "p95", "p99", "speculated", "rescheduled")
	for _, policy := range policies {
		r := policyRun(opts.Seed, policy, tasks, servers)
		policyTable.AddRow(policy, r.makespan, r.lat.Quantile(0.50), r.lat.Quantile(0.95), r.lat.Quantile(0.99),
			r.speculated, r.rescheduled)
	}
	return Result{Name: "sched-compare", Tables: []*metrics.Table{policyTable}}
}

// policyRunResult carries one policy configuration's measurements.
type policyRunResult struct {
	makespan    time.Duration
	lat         metrics.Sample
	speculated  int
	rescheduled int
}

// policyRun executes the heterogeneous-straggler workload once: an
// unmeasured warmup batch large enough that every server completes
// work (teaching the estimator the true speeds), then the measured
// batch under the fault load.
func policyRun(seed int64, policy string, tasks, servers int) policyRunResult {
	const (
		taskTime        = 10 * time.Second
		faultsPerMinute = 0.25
		downtime        = 5 * time.Second
		parallelism     = 4
	)
	slow := func(i int) float64 {
		if i%4 == 0 {
			return 10
		}
		return 1
	}
	// One registry shared across the deployment: the run's scheduling
	// aggregates are node-labeled metric sums, not per-node stat polls.
	reg := obs.NewRegistry()
	cl := cluster.New(cluster.Config{
		Seed:              seed,
		Coordinators:      2,
		Servers:           servers,
		Clients:           1,
		Policy:            policy,
		ServerSpeed:       slow,
		Parallelism:       parallelism,
		ReplicationPeriod: 10 * time.Second,
		Obs:               reg,
	})

	// Warmup: 8 tasks per server guarantees even the slow machines
	// complete a few, so their speed estimates are in place (and their
	// slot counts advertised) before measurement starts.
	warmup := 8 * servers
	cl.SubmitBatch(0, warmup, "synthetic", 256, taskTime, 64)
	cl.RunUntilResults(0, warmup, time.Hour)

	gen := faultgen.New(cl.World)
	perNodeMTBF := time.Duration(float64(time.Minute) / faultsPerMinute)
	gen.Poisson(cl.ServerIDs, perNodeMTBF, downtime)

	start := cl.World.Now()
	if policy == "deadline" {
		// Deadline runs carry per-call soft deadlines so EDF has
		// something to order by: a generous slack proportional to the
		// submission index (the natural "finish in order" contract).
		ci := cl.Client(0)
		cl.World.Schedule(0, func() {
			params := make([]byte, 256)
			for j := 0; j < tasks; j++ {
				slack := time.Minute + time.Duration(j)*taskTime
				ci.SubmitWithDeadline("synthetic", params, taskTime, 64, slack)
			}
		})
	} else {
		cl.SubmitBatch(0, tasks, "synthetic", 256, taskTime, 64)
	}

	var r policyRunResult
	const cap = 4 * time.Hour
	done := cl.RunUntilResults(0, warmup+tasks, cap)
	gen.Stop()
	if !done {
		r.makespan = cap
	} else {
		r.makespan = cl.World.Now().Sub(start)
	}
	for call, at := range cl.ResultAt {
		if call.Seq > proto.RPCSeq(warmup) {
			r.lat.Add(at.Sub(start))
		}
	}
	r.speculated = int(reg.Sum("rpcv_coord_speculated_total"))
	r.rescheduled = int(reg.Sum("rpcv_coord_requeues_total"))
	return r
}
