// Package workload generates the real-life workload of the paper's
// evaluation, the Alcatel application: a commutation-network validation
// tool split into 1000 parallel tasks whose durations vary "in a wide
// range" (figure 8 shows the distribution). The synthetic benchmark of
// the confined experiments (§5.1) needs no generator: its calls are
// identical, and the experiments submit them directly.
//
// The Alcatel binary is proprietary; we substitute a deterministic
// sampler whose histogram reproduces figure 8's shape: a dominant mass
// of short tasks with a long right tail of multi-minute ones, modelled
// as a mixture of a log-normal body and a heavy tail.
package workload

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Call describes one RPC to submit.
type Call struct {
	Service    string
	ParamSize  int
	ExecTime   time.Duration
	ResultSize int
}

// AlcatelConfig parameterizes the Alcatel-like task mix.
type AlcatelConfig struct {
	// Tasks is the number of parallel tasks (the paper runs 1000).
	Tasks int
	// Seed drives the deterministic sampler.
	Seed int64
	// Median is the median duration of the log-normal body.
	// Default 90 s.
	Median time.Duration
	// Sigma is the log-normal shape parameter. Default 0.55.
	Sigma float64
	// TailFraction is the share of heavy-tail tasks. Default 0.08.
	TailFraction float64
	// TailScale stretches tail tasks relative to the body. Default 4.
	TailScale float64
	// ParamSize and ResultSize are the per-task payload sizes
	// (network-configuration description in, signal-loss/bandwidth
	// report out). Defaults 2 KiB / 8 KiB.
	ParamSize  int
	ResultSize int
}

func (c *AlcatelConfig) applyDefaults() {
	if c.Tasks <= 0 {
		c.Tasks = 1000
	}
	if c.Seed == 0 {
		c.Seed = 2004
	}
	if c.Median <= 0 {
		c.Median = 90 * time.Second
	}
	if c.Sigma == 0 {
		c.Sigma = 0.55
	}
	if c.TailFraction == 0 {
		c.TailFraction = 0.08
	}
	if c.TailScale == 0 {
		c.TailScale = 4
	}
	if c.ParamSize == 0 {
		c.ParamSize = 2 << 10
	}
	if c.ResultSize == 0 {
		c.ResultSize = 8 << 10
	}
}

// Alcatel samples the task mix. The same config always yields the same
// call list.
func Alcatel(cfg AlcatelConfig) []Call {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	mu := math.Log(cfg.Median.Seconds())
	calls := make([]Call, cfg.Tasks)
	for i := range calls {
		d := math.Exp(mu + cfg.Sigma*rng.NormFloat64())
		if rng.Float64() < cfg.TailFraction {
			// Heavy tail: long validation scenarios.
			d *= cfg.TailScale * (1 + rng.Float64())
		}
		if d < 5 {
			d = 5 // even trivial configurations take a few seconds
		}
		calls[i] = Call{
			Service:    "alcatel",
			ParamSize:  cfg.ParamSize,
			ExecTime:   time.Duration(d * float64(time.Second)),
			ResultSize: cfg.ResultSize,
		}
	}
	return calls
}

// DurationHistogram bins call durations into fixed-width buckets,
// returning bucket upper bounds and counts — figure 8's histogram.
func DurationHistogram(calls []Call, width time.Duration, buckets int) (bounds []time.Duration, counts []int) {
	bounds = make([]time.Duration, buckets)
	counts = make([]int, buckets)
	for i := range bounds {
		bounds[i] = time.Duration(i+1) * width
	}
	for _, c := range calls {
		idx := int(c.ExecTime / width)
		if idx >= buckets {
			idx = buckets - 1
		}
		counts[idx]++
	}
	return bounds, counts
}

// Stats summarizes a call list's durations.
type Stats struct {
	Count          int
	Min, Max, Mean time.Duration
	Median         time.Duration
	Total          time.Duration
	P90            time.Duration
}

// Summarize computes duration statistics for a call list.
func Summarize(calls []Call) Stats {
	if len(calls) == 0 {
		return Stats{}
	}
	ds := make([]time.Duration, len(calls))
	var total time.Duration
	min, max := calls[0].ExecTime, calls[0].ExecTime
	for i, c := range calls {
		ds[i] = c.ExecTime
		total += c.ExecTime
		if c.ExecTime < min {
			min = c.ExecTime
		}
		if c.ExecTime > max {
			max = c.ExecTime
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return Stats{
		Count:  len(calls),
		Min:    min,
		Max:    max,
		Mean:   total / time.Duration(len(calls)),
		Median: ds[len(ds)/2],
		P90:    ds[(len(ds)*9)/10],
		Total:  total,
	}
}
