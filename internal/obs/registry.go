package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name dimension: rpcv_coord_finished_total{node="co"}.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter. All methods
// are safe for concurrent use and no-op on a nil receiver.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (float64, so it serves both
// integral depths and fractional rates or factors). All methods are
// safe for concurrent use and no-op on a nil receiver.
type Gauge struct{ v atomic.Uint64 } // float64 bits

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v.Store(math.Float64bits(v))
	}
}

// SetInt stores n.
func (g *Gauge) SetInt(n int) { g.Set(float64(n)) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.v.Load()
		if g.v.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// Histogram is the constant-memory, concurrent counterpart of the
// exact metrics.Sample: logarithmic buckets (histSub sub-buckets per
// power of two, ~6% resolution) over non-negative int64 values,
// maintained with atomic adds only — no lock on the observe path. It
// is unit-agnostic: callers choose the unit (nanoseconds, messages,
// bytes) and encode it in the metric name. All methods are safe for
// concurrent use and no-op on a nil receiver.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Int64
	min    atomic.Int64 // valid only when n > 0
	max    atomic.Int64
}

const (
	histSub = 8
	// v<8 exact, then 8 sub-buckets per octave for exponents 3..62
	// (the largest bits.Len64-1 an int64 value can produce).
	histBuckets = histSub + (62-2)*histSub
)

// histBucket maps a non-negative value to its bucket index.
func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	u := uint64(v)
	exp := bits.Len64(u) - 1 // >= 3
	sub := (u >> uint(exp-3)) & (histSub - 1)
	return histSub + (exp-3)*histSub + int(sub)
}

// histBucketMid returns a representative value for bucket i.
func histBucketMid(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := 3 + (i-histSub)/histSub
	sub := (i - histSub) % histSub
	lo := int64(1)<<uint(exp) + int64(sub)<<uint(exp-3)
	return lo + int64(1)<<uint(exp-3)/2
}

// Observe records one value (negatives clamp to 0).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)].Add(1)
	h.sum.Add(v)
	if h.n.Add(1) == 1 {
		// First observation seeds min/max; racing observers fix any
		// interleaving through the CAS loops below.
		h.min.Store(v)
		h.max.Store(v)
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveDuration records d in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Since records the nanoseconds elapsed since start.
func (h *Histogram) Since(start time.Time) { h.ObserveDuration(time.Since(start)) }

// HistogramSnapshot is a point-in-time summary of a Histogram.
type HistogramSnapshot struct {
	N   uint64  `json:"n"`
	Sum float64 `json:"sum"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Snapshot summarizes the histogram. Concurrent Observes may land
// between field reads; the result is a consistent-enough scrape, not
// an atomic cut.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var counts [histBuckets]uint64
	var n uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		n += counts[i]
	}
	if n == 0 {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		N:   n,
		Sum: float64(h.sum.Load()),
		Min: float64(h.min.Load()),
		Max: float64(h.max.Load()),
	}
	quantile := func(q float64) float64 {
		rank := uint64(q * float64(n-1))
		var cum uint64
		for i, c := range counts {
			cum += c
			if cum > rank {
				v := float64(histBucketMid(i))
				return math.Max(s.Min, math.Min(s.Max, v))
			}
		}
		return s.Max
	}
	s.P50, s.P95, s.P99 = quantile(0.50), quantile(0.95), quantile(0.99)
	return s
}

// kind discriminates registry entries for exposition.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k kind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "summary"
	}
}

type entry struct {
	name   string
	labels []Label
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
	// cf and gf are atomic: a restarting node re-registers its
	// scrape-time funcs on an existing entry while a concurrent
	// Snapshot may be reading them.
	cf atomic.Pointer[func() uint64]
	gf atomic.Pointer[func() float64]
}

// value returns the entry's scalar reading (histograms report N).
func (e *entry) value() float64 {
	switch e.kind {
	case kindCounter:
		return float64(e.c.Value())
	case kindGauge:
		return e.g.Value()
	case kindCounterFunc:
		if fn := e.cf.Load(); fn != nil {
			return float64((*fn)())
		}
		return 0
	case kindGaugeFunc:
		if fn := e.gf.Load(); fn != nil {
			return (*fn)()
		}
		return 0
	default:
		return float64(e.h.Snapshot().N)
	}
}

// Registry owns a set of named, labeled metrics. Lookups are
// mutex-guarded (do them once, at wiring time); the instruments they
// return are atomic. A nil *Registry is valid: every lookup returns a
// nil instrument and every snapshot is empty.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]*entry
	entries []*entry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*entry{}}
}

func metricKey(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0xff)
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// lookup finds or creates the entry for (name, labels). Same name and
// labels returns the same entry; re-registering under a different kind
// panics — it is always a wiring bug.
func (r *Registry) lookup(name string, labels []Label, k kind) *entry {
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	key := metricKey(name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[key]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, k, e.kind))
		}
		return e
	}
	e := &entry{name: name, labels: sorted, kind: k}
	switch k {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHistogram:
		e.h = &Histogram{}
	}
	r.byKey[key] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter finds or creates a counter. Nil registry returns nil (whose
// methods no-op).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindCounter).c
}

// Gauge finds or creates a gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindGauge).g
}

// Histogram finds or creates a histogram.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindHistogram).h
}

// CounterFunc registers a counter read at scrape time — the zero-
// overhead way to expose an existing atomic the hot path already
// maintains. fn must be safe to call from any goroutine.
func (r *Registry) CounterFunc(name string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.lookup(name, labels, kindCounterFunc).cf.Store(&fn)
}

// GaugeFunc registers a gauge read at scrape time. fn must be safe to
// call from any goroutine.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.lookup(name, labels, kindGaugeFunc).gf.Store(&fn)
}

// Sample is one metric's reading in a registry snapshot.
type Sample struct {
	Name   string             `json:"name"`
	Labels map[string]string  `json:"labels,omitempty"`
	Kind   string             `json:"kind"`
	Value  float64            `json:"value"`
	Hist   *HistogramSnapshot `json:"hist,omitempty"`
}

// snapshotEntries copies the entry list under the lock; readings
// happen outside it so scrape-time funcs may themselves take locks.
func (r *Registry) snapshotEntries() []*entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*entry(nil), r.entries...)
}

// Snapshot reads every metric, sorted by name then labels.
func (r *Registry) Snapshot() []Sample {
	entries := r.snapshotEntries()
	samples := make([]Sample, 0, len(entries))
	for _, e := range entries {
		s := Sample{Name: e.name, Kind: e.kind.promType(), Value: e.value()}
		if len(e.labels) > 0 {
			s.Labels = make(map[string]string, len(e.labels))
			for _, l := range e.labels {
				s.Labels[l.Key] = l.Value
			}
		}
		if e.kind == kindHistogram {
			hs := e.h.Snapshot()
			s.Hist = &hs
		}
		samples = append(samples, s)
	}
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].Name != samples[j].Name {
			return samples[i].Name < samples[j].Name
		}
		return fmt.Sprint(samples[i].Labels) < fmt.Sprint(samples[j].Labels)
	})
	return samples
}

// Sum adds up every label variant of the named metric — how a shared
// registry totals, say, rpcv_transport_sent_total across nodes.
func (r *Registry) Sum(name string) float64 {
	var sum float64
	for _, e := range r.snapshotEntries() {
		if e.name == name {
			sum += e.value()
		}
	}
	return sum
}

// Value reads one exact (name, labels) metric. ok is false when it was
// never registered.
func (r *Registry) Value(name string, labels ...Label) (v float64, ok bool) {
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	for _, e := range r.snapshotEntries() {
		if e.name == name && labelsEqual(e.labels, sorted) {
			return e.value(), true
		}
	}
	return 0, false
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func writeLabels(b *strings.Builder, labels []Label, extra ...Label) {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4). Counters and gauges emit one
// sample each; histograms emit a summary (quantile series plus _sum
// and _count). No external dependency is involved — the format is a
// stable, greppable text contract.
func (r *Registry) WritePrometheus(w io.Writer) error {
	entries := r.snapshotEntries()
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	var b strings.Builder
	lastType := ""
	for _, e := range entries {
		if e.name != lastType {
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, e.kind.promType())
			lastType = e.name
		}
		if e.kind == kindHistogram {
			hs := e.h.Snapshot()
			for _, q := range []struct {
				q string
				v float64
			}{{"0.5", hs.P50}, {"0.95", hs.P95}, {"0.99", hs.P99}} {
				b.WriteString(e.name)
				writeLabels(&b, e.labels, L("quantile", q.q))
				fmt.Fprintf(&b, " %v\n", q.v)
			}
			b.WriteString(e.name + "_sum")
			writeLabels(&b, e.labels)
			fmt.Fprintf(&b, " %v\n", hs.Sum)
			b.WriteString(e.name + "_count")
			writeLabels(&b, e.labels)
			fmt.Fprintf(&b, " %d\n", hs.N)
			continue
		}
		b.WriteString(e.name)
		writeLabels(&b, e.labels)
		fmt.Fprintf(&b, " %v\n", e.value())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Summary renders the non-zero metrics as one "name{labels}=value"
// line — the daemons print it on shutdown so a ^C leaves a trace of
// what the process did.
func (r *Registry) Summary() string {
	var parts []string
	for _, s := range r.Snapshot() {
		labels := ""
		if len(s.Labels) > 0 {
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			kv := make([]string, 0, len(keys))
			for _, k := range keys {
				kv = append(kv, k+"="+s.Labels[k])
			}
			labels = "{" + strings.Join(kv, ",") + "}"
		}
		if s.Hist != nil {
			if s.Hist.N == 0 {
				continue
			}
			parts = append(parts, fmt.Sprintf("%s%s=n:%d,p50:%v,p99:%v",
				s.Name, labels, s.Hist.N, s.Hist.P50, s.Hist.P99))
			continue
		}
		if s.Value == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s%s=%v", s.Name, labels, s.Value))
	}
	if len(parts) == 0 {
		return "(no metrics recorded)"
	}
	return strings.Join(parts, " ")
}
