package obs

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", L("node", "a"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("x_total", L("node", "a")); again != c {
		t.Fatal("same (name, labels) must return the same counter")
	}
	if other := r.Counter("x_total", L("node", "b")); other == c {
		t.Fatal("different labels must return a different counter")
	}

	g := r.Gauge("depth")
	g.SetInt(7)
	g.Add(-2.5)
	if got := g.Value(); got != 4.5 {
		t.Fatalf("gauge = %v, want 4.5", got)
	}

	if v, ok := r.Value("x_total", L("node", "a")); !ok || v != 5 {
		t.Fatalf("Value = %v, %v; want 5, true", v, ok)
	}
	if sum := r.Sum("x_total"); sum != 5 {
		t.Fatalf("Sum = %v, want 5", sum)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("metric")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("metric")
}

func TestHistogram(t *testing.T) {
	seq := []int64{-5} // clamps to 0
	for i := int64(1); i <= 100; i++ {
		seq = append(seq, i)
	}
	for _, tc := range []struct {
		name     string
		values   []int64
		want     HistogramSnapshot // N, Sum, Min, Max
		p50, p99 [2]float64        // inclusive bounds
	}{
		// An empty histogram is all zeros, never a bucket midpoint.
		{name: "empty"},
		// With one observation every quantile is that observation
		// exactly: the min/max clamp hides the bucket midpoint's error.
		{name: "single", values: []int64{7e6},
			want: HistogramSnapshot{N: 1, Sum: 7e6, Min: 7e6, Max: 7e6},
			p50:  [2]float64{7e6, 7e6}, p99: [2]float64{7e6, 7e6}},
		// Log buckets give ~6% resolution above 8; the median of 1..100
		// must land near 50.
		{name: "1..100", values: seq,
			want: HistogramSnapshot{N: 101, Sum: 5050, Min: 0, Max: 100},
			p50:  [2]float64{40, 60}, p99: [2]float64{90, 100}},
	} {
		var h Histogram
		for _, v := range tc.values {
			h.Observe(v)
		}
		s := h.Snapshot()
		if s.N != tc.want.N || s.Sum != tc.want.Sum || s.Min != tc.want.Min || s.Max != tc.want.Max {
			t.Errorf("%s: n/sum/min/max = %v/%v/%v/%v, want %v/%v/%v/%v", tc.name,
				s.N, s.Sum, s.Min, s.Max, tc.want.N, tc.want.Sum, tc.want.Min, tc.want.Max)
		}
		if s.P50 < tc.p50[0] || s.P50 > tc.p50[1] || s.P99 < tc.p99[0] || s.P99 > tc.p99[1] {
			t.Errorf("%s: p50/p99 = %v/%v, want within %v/%v", tc.name, s.P50, s.P99, tc.p50, tc.p99)
		}
		if s.P99 < s.P95 || s.P95 < s.P50 {
			t.Errorf("%s: quantiles not monotone: %v %v %v", tc.name, s.P50, s.P95, s.P99)
		}
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	// Values below histSub occupy one bucket each: exact quantiles.
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(3)
	}
	s := h.Snapshot()
	if s.P50 != 3 || s.P99 != 3 {
		t.Fatalf("p50/p99 = %v/%v, want 3/3", s.P50, s.P99)
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every bucket's representative value must map back to its bucket,
	// across the whole int64 range.
	for i := 0; i < histBuckets; i++ {
		mid := histBucketMid(i)
		if mid < 0 {
			t.Fatalf("bucket %d mid overflowed: %d", i, mid)
		}
		if got := histBucket(mid); got != i {
			t.Fatalf("bucket %d: mid %d maps to bucket %d", i, mid, got)
		}
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	var n uint64 = 42
	r.CounterFunc("scraped_total", func() uint64 { return n })
	r.GaugeFunc("factor", func() float64 { return 2.5 })
	if v, ok := r.Value("scraped_total"); !ok || v != 42 {
		t.Fatalf("CounterFunc read = %v, %v", v, ok)
	}
	// Re-registering replaces the func: a restarted node re-binds its
	// scrape closure to the new instance's atomics.
	r.CounterFunc("scraped_total", func() uint64 { return 7 })
	if v, _ := r.Value("scraped_total"); v != 7 {
		t.Fatalf("replaced CounterFunc read = %v, want 7", v)
	}
	if v, ok := r.Value("factor"); !ok || v != 2.5 {
		t.Fatalf("GaugeFunc read = %v, %v", v, ok)
	}
}

// expositionLine matches one valid Prometheus 0.0.4 text line: a
// comment or a sample with optional labels and a numeric value. The CI
// smoke uses the same shape to reject malformed scrapes.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [-+0-9.eE]+([eE][-+]?[0-9]+)?)$`)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("rpcv_test_total", L("node", "a")).Add(3)
	r.Counter("rpcv_test_total", L("node", "b")).Add(4)
	r.Gauge("rpcv_test_depth", L("node", `quo"te`)).SetInt(2)
	// Every escape the format defines: a newline, a backslash, and a
	// backslash before a letter that must not read as an escape.
	r.Gauge("rpcv_test_depth", L("node", "new\nline back\\slash lit\\d")).SetInt(3)
	h := r.Histogram("rpcv_test_lat_ns", L("node", "a"))
	h.Observe(100)
	h.Observe(200)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE rpcv_test_total counter",
		`rpcv_test_total{node="a"} 3`,
		`rpcv_test_total{node="b"} 4`,
		"# TYPE rpcv_test_lat_ns summary",
		`rpcv_test_lat_ns{node="a",quantile="0.5"}`,
		`rpcv_test_lat_ns_count{node="a"} 2`,
		`rpcv_test_lat_ns_sum{node="a"} 300`,
		`node="quo\"te"`,
		`rpcv_test_depth{node="new\nline back\\slash lit\\d"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per metric name, before its samples.
	if strings.Count(out, "# TYPE rpcv_test_total") != 1 {
		t.Errorf("TYPE line repeated:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestSummary(t *testing.T) {
	r := NewRegistry()
	if s := r.Summary(); !strings.Contains(s, "no metrics") {
		t.Fatalf("empty summary = %q", s)
	}
	r.Counter("a_total", L("node", "x")).Add(2)
	r.Counter("zero_total") // zero values stay out of the summary
	s := r.Summary()
	if !strings.Contains(s, "a_total{node=x}=2") {
		t.Fatalf("summary = %q", s)
	}
	if strings.Contains(s, "zero_total") {
		t.Fatalf("summary includes zero metric: %q", s)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(1)
	r.CounterFunc("cf", func() uint64 { return 1 })
	r.GaugeFunc("gf", func() float64 { return 1 })
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("nil registry snapshot = %v", got)
	}

	var o *Observer
	if o.Registry() != nil || o.Tracer() != nil || o.Node() != "" {
		t.Fatal("nil observer accessors must return zero values")
	}
	o.Tracer().Event(callID(1), StageSubmit, "")

	var h *Histogram
	h.Observe(5)
	if h.Snapshot().N != 0 {
		t.Fatal("nil histogram must stay empty")
	}
}

// TestRegistryConcurrency hammers every instrument kind while scrapes
// run — the -race suite's main target.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			node := L("node", fmt.Sprintf("n%d", i%2))
			c := r.Counter("conc_total", node)
			g := r.Gauge("conc_depth", node)
			h := r.Histogram("conc_lat", node)
			for j := 0; j < 2000; j++ {
				c.Inc()
				g.SetInt(j)
				g.Add(0.5)
				h.Observe(int64(j))
			}
		}(i)
	}
	var scrapes sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				_ = r.WritePrometheus(&sb)
				_ = r.Snapshot()
				_ = r.Sum("conc_total")
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()
	if got := r.Sum("conc_total"); got != 8000 {
		t.Fatalf("Sum(conc_total) = %v, want 8000", got)
	}
}
