package metrics

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleStats(t *testing.T) {
	s := &Sample{}
	for _, v := range []time.Duration{3, 1, 2, 5, 4} {
		s.Add(v * time.Second)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Min() != time.Second || s.Max() != 5*time.Second {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Mean() != 3*time.Second {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Sum() != 15*time.Second {
		t.Fatalf("sum = %v", s.Sum())
	}
	if s.Quantile(0.5) != 3*time.Second {
		t.Fatalf("median = %v", s.Quantile(0.5))
	}
	if s.Quantile(0) != time.Second || s.Quantile(1) != 5*time.Second {
		t.Fatal("extreme quantiles wrong")
	}
}

func TestSampleEmpty(t *testing.T) {
	s := &Sample{}
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty sample stats not zero")
	}
}

func TestSampleQuantileMonotoneQuick(t *testing.T) {
	f := func(vals []uint16, q1, q2 float64) bool {
		if len(vals) == 0 {
			return true
		}
		s := &Sample{}
		for _, v := range vals {
			s.Add(time.Duration(v))
		}
		a, b := clamp01(q1), clamp01(q2)
		if a > b {
			a, b = b, a
		}
		return s.Quantile(a) <= s.Quantile(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clamp01(x float64) float64 {
	if x != x || x < 0 { // NaN or negative
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(time.Minute, 10)
	s.Add(2*time.Minute, 10)
	s.Add(3*time.Minute, 20)
	if s.Last() != 20 {
		t.Fatalf("last = %v", s.Last())
	}
	if s.ValueAt(2*time.Minute+30*time.Second) != 10 {
		t.Fatalf("value at 2.5m = %v", s.ValueAt(2*time.Minute+30*time.Second))
	}
	if s.ValueAt(0) != 0 {
		t.Fatal("value before first point not 0")
	}
}

func TestPlateaus(t *testing.T) {
	s := &Series{}
	// 0,0, 5,5,5, 10, 15,15, 20,20 (final value runs excluded).
	for i, v := range []float64{0, 0, 5, 5, 5, 10, 15, 15, 20, 20} {
		s.Add(time.Duration(i)*time.Minute, v)
	}
	// Runs: [5,5,5] and [15,15] count; leading zeros and final 20s do not.
	if got := s.Plateaus(2); got != 2 {
		t.Fatalf("plateaus = %d, want 2", got)
	}
	if got := s.Plateaus(3); got != 1 {
		t.Fatalf("plateaus(3) = %d, want 1", got)
	}
	if (&Series{}).Plateaus(1) != 0 {
		t.Fatal("empty series has plateaus")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 150*time.Millisecond)
	tb.AddRow("beta-long-name", 42)
	out := tb.String()
	if !strings.Contains(out, "# Demo") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "150ms") {
		t.Error("duration not formatted")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4", len(lines))
	}
	// Columns aligned: "value" header starts at the same offset in all rows.
	head := lines[1]
	idx := strings.Index(head, "value")
	for _, ln := range lines[2:] {
		if len(ln) <= idx {
			t.Fatalf("row shorter than header: %q", ln)
		}
	}
	if tb.Rows() != 2 || tb.Cell(0, 0) != "alpha" {
		t.Fatal("accessors wrong")
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		0:                       "0",
		500 * time.Nanosecond:   "500ns",
		42 * time.Microsecond:   "42us",
		3 * time.Millisecond:    "3ms",
		1500 * time.Millisecond: "1.5s",
		90 * time.Second:        "90.0s",
		2 * time.Hour:           "7200.0s",
	}
	for d, want := range cases {
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int]string{
		100:           "100B",
		1_000:         "1KB",
		10_000:        "10KB",
		1_000_000:     "1MB",
		100_000_000:   "100MB",
		2_000_000_000: "2GB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestSampleQuantileCacheInvalidation pins the sorted-slice cache:
// quantiles computed after an Add must see the new observation (the
// cache is invalidated), and interleaved quantile calls must agree
// with a freshly built sample (the cache never reorders or drops).
func TestSampleQuantileCacheInvalidation(t *testing.T) {
	var s Sample
	s.Add(30 * time.Millisecond)
	s.Add(10 * time.Millisecond)
	if got := s.Quantile(0); got != 10*time.Millisecond {
		t.Fatalf("min quantile = %v, want 10ms", got)
	}
	// The cache is now warm; an Add must invalidate it.
	s.Add(1 * time.Millisecond)
	if got := s.Quantile(0); got != 1*time.Millisecond {
		t.Fatalf("min quantile after Add = %v, want 1ms (stale cache?)", got)
	}
	if got := s.Quantile(1); got != 30*time.Millisecond {
		t.Fatalf("max quantile = %v, want 30ms", got)
	}
	// A full p50/p95/p99 report off one snapshot agrees with a fresh
	// sample holding the same values.
	var fresh Sample
	for _, v := range []time.Duration{30, 10, 1} {
		fresh.Add(v * time.Millisecond)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got, want := s.Quantile(q), fresh.Quantile(q); got != want {
			t.Fatalf("q=%v: cached %v, fresh %v", q, got, want)
		}
	}
	// Values must stay untouched (Quantile sorts a copy, not values).
	if s.values[0] != 30*time.Millisecond {
		t.Fatalf("Quantile reordered the observation log: %v", s.values)
	}
}

// BenchmarkSampleQuantileReport measures the experiment drivers' hot
// reporting pattern — one Add, then a p50/p95/p99 report — which the
// sorted-slice cache turns from three sorts into one.
func BenchmarkSampleQuantileReport(b *testing.B) {
	var s Sample
	for i := 0; i < 10000; i++ {
		s.Add(time.Duration(i*7919%10000) * time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(time.Duration(i%10000) * time.Microsecond)
		_ = s.Quantile(0.50)
		_ = s.Quantile(0.95)
		_ = s.Quantile(0.99)
	}
}
