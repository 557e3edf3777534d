package workload

import (
	"testing"
	"time"
)

func TestAlcatelDeterministic(t *testing.T) {
	a := Alcatel(AlcatelConfig{Tasks: 100, Seed: 5})
	b := Alcatel(AlcatelConfig{Tasks: 100, Seed: 5})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different workloads")
		}
	}
	c := Alcatel(AlcatelConfig{Tasks: 100, Seed: 6})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestAlcatelDefaults(t *testing.T) {
	calls := Alcatel(AlcatelConfig{})
	if len(calls) != 1000 {
		t.Fatalf("default task count = %d, want 1000", len(calls))
	}
	for _, c := range calls {
		if c.ExecTime < 5*time.Second {
			t.Fatalf("task below minimum duration: %v", c.ExecTime)
		}
		if c.ParamSize != 2<<10 || c.ResultSize != 8<<10 {
			t.Fatalf("default sizes wrong: %+v", c)
		}
	}
}

func TestAlcatelWideRange(t *testing.T) {
	// The paper: "the tasks duration varies in a wide range". Expect a
	// long-tailed distribution: max >> median, p90 > 2x median.
	st := Summarize(Alcatel(AlcatelConfig{Tasks: 1000, Seed: 2004}))
	if st.Max < 5*st.Median {
		t.Errorf("max %v not >> median %v", st.Max, st.Median)
	}
	if st.P90 < 2*st.Median {
		t.Errorf("p90 %v not heavy-tailed vs median %v", st.P90, st.Median)
	}
	if st.Mean <= st.Median {
		t.Errorf("mean %v <= median %v: not right-skewed", st.Mean, st.Median)
	}
}

func TestDurationHistogram(t *testing.T) {
	calls := []Call{
		{ExecTime: 10 * time.Second},
		{ExecTime: 40 * time.Second},
		{ExecTime: 45 * time.Second},
		{ExecTime: 10 * time.Minute}, // overflow bucket
	}
	bounds, counts := DurationHistogram(calls, 30*time.Second, 4)
	if len(bounds) != 4 || len(counts) != 4 {
		t.Fatal("bucket count wrong")
	}
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 0 || counts[3] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(calls) {
		t.Fatalf("histogram total %d != %d calls", total, len(calls))
	}
}

func TestSummarize(t *testing.T) {
	calls := []Call{
		{ExecTime: 1 * time.Second},
		{ExecTime: 2 * time.Second},
		{ExecTime: 3 * time.Second},
		{ExecTime: 10 * time.Second},
	}
	st := Summarize(calls)
	if st.Count != 4 || st.Min != time.Second || st.Max != 10*time.Second {
		t.Fatalf("stats = %+v", st)
	}
	if st.Mean != 4*time.Second || st.Total != 16*time.Second {
		t.Fatalf("mean/total = %v/%v", st.Mean, st.Total)
	}
	if st.Median != 3*time.Second { // index 2 of sorted [1 2 3 10]
		t.Fatalf("median = %v", st.Median)
	}
	if Summarize(nil).Count != 0 {
		t.Fatal("empty summarize not zero")
	}
}
