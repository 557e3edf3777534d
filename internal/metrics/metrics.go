// Package metrics provides the small measurement toolkit shared by the
// experiment drivers: duration samples with summary statistics and
// exact quantiles (the live, constant-memory histogram is
// obs.Histogram), counter time series (completed tasks over time, the
// y-axis of figures 9-11), and fixed-width text tables that render
// every figure as rows the way the paper reports them.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Sample accumulates duration observations. It is a single-goroutine
// analysis type (no internal locking) — for concurrent recording from
// live nodes use the atomic obs.Histogram in internal/obs.
type Sample struct {
	values []time.Duration
	// sorted caches the ascending copy Quantile works on, so a
	// p50/p95/p99 report pays one sort instead of one per quantile.
	// Add invalidates it.
	sorted []time.Duration
}

// Add appends one observation.
func (s *Sample) Add(d time.Duration) {
	s.values = append(s.values, d)
	s.sorted = nil
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Sample) Mean() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	var total time.Duration
	for _, v := range s.values {
		total += v
	}
	return total / time.Duration(len(s.values))
}

// Min returns the smallest observation (0 when empty).
func (s *Sample) Min() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	min := s.values[0]
	for _, v := range s.values[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest observation (0 when empty).
func (s *Sample) Max() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	max := s.values[0]
	for _, v := range s.values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest rank. The
// first call after an Add copies and sorts the sample once; further
// quantiles of the same snapshot reuse the cached order.
func (s *Sample) Quantile(q float64) time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	if s.sorted == nil {
		s.sorted = append([]time.Duration(nil), s.values...)
		sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i] < s.sorted[j] })
	}
	idx := int(q * float64(len(s.sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.sorted) {
		idx = len(s.sorted) - 1
	}
	return s.sorted[idx]
}

// Sum returns the total of all observations.
func (s *Sample) Sum() time.Duration {
	var total time.Duration
	for _, v := range s.values {
		total += v
	}
	return total
}

// Series is a (time offset, value) sequence: e.g. completed tasks as
// seen by a coordinator, sampled every minute (figures 9-11).
type Series struct {
	Name   string
	Points []Point
}

// Point is one sample of a series.
type Point struct {
	At    time.Duration // offset from experiment start
	Value float64
}

// Add appends a point.
func (s *Series) Add(at time.Duration, v float64) {
	s.Points = append(s.Points, Point{At: at, Value: v})
}

// Last returns the final value (0 when empty).
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Value
}

// ValueAt returns the value of the latest point at or before t.
func (s *Series) ValueAt(t time.Duration) float64 {
	v := 0.0
	for _, p := range s.Points {
		if p.At > t {
			break
		}
		v = p.Value
	}
	return v
}

// Plateaus counts maximal runs of >= minLen consecutive points with an
// unchanged value, excluding leading zeros and the final saturated
// value. It quantifies the staircase shape of the replica curve in
// figure 9 (the discrete 60 s replication).
func (s *Series) Plateaus(minLen int) int {
	if len(s.Points) == 0 {
		return 0
	}
	final := s.Points[len(s.Points)-1].Value
	count := 0
	run := 1
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Value == s.Points[i-1].Value {
			run++
		} else {
			if run >= minLen && s.Points[i-1].Value != 0 && s.Points[i-1].Value != final {
				count++
			}
			run = 1
		}
	}
	return count
}

// Table renders aligned columns for figure output.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case time.Duration:
			row[i] = FormatDuration(v)
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the formatted cell at (row, col).
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

// Write renders the table.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "# %s\n", t.Title)
	}
	var head strings.Builder
	for i, c := range t.Columns {
		fmt.Fprintf(&head, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(head.String(), " "))
	for _, row := range t.rows {
		var line strings.Builder
		for i, cell := range row {
			fmt.Fprintf(&line, "%-*s  ", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(line.String(), " "))
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Write(&b)
	return b.String()
}

// FormatDuration renders durations with three significant figures and
// stable units, so tables stay aligned across magnitudes.
func FormatDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.3gus", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.3gms", float64(d)/float64(time.Millisecond))
	case d < time.Minute:
		return fmt.Sprintf("%.3gs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}

// FormatBytes renders byte counts compactly (powers of ten, as the
// paper's x-axes do).
func FormatBytes(n int) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.3gGB", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.3gMB", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.3gKB", float64(n)/1e3)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
