package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile reads quantile q (0..1) of an ascending slice by linear
// interpolation between ranks. An empty slice reads 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamples = 10

// tailQuantile is the highest quantile not above want that still has
// at least tailSamples samples beyond it among n; with fewer than
// 2*tailSamples samples it falls back to the median.
func tailQuantile(n int, want float64) float64 {
	if n < 2*tailSamples {
		return 0.5
	}
	return math.Min(want, 1-float64(tailSamples)/float64(n))
}

// median sorts a copy of xs and reads its middle.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// trimmedMean drops an eighth of the samples from each end and
// averages the rest.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/8 : len(s)-len(s)/8]
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns the first and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method), which
// is what the acceptance run computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// processCPU is the process's user+system CPU time so far. The whole
// grid is this one process, so a delta over the window is the grid's
// CPU cost (load generator included).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// allocatedBytes is how many heap bytes the process has allocated so
// far, freed or not. Unlike CPU time it does not depend on how fast the
// box runs at the moment: the same messages allocate the same bytes.
func allocatedBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeap reads the heap in use after a collection, three times, and
// keeps the smallest: what the grid retains. Messages in flight between
// the nodes (an idle session still polls every period) and buffers a
// sync.Pool gives up one collection late only ever add to a reading.
func liveHeap() uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc < least {
			least = ms.HeapAlloc
		}
	}
	return least
}
