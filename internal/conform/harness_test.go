package conform

import (
	"runtime"
	"testing"
	"time"
)

// A restart needs no crash before it: the scenario language accepts
// "restart co0" on a live node, and that is a crash plus a start. The
// node's running incarnation must be closed before the next one opens
// its WAL (nothing locks the directory against a second writer), and
// nothing of either may outlive the cell.
func TestRestartOfALiveNodeReplacesIt(t *testing.T) {
	suite, err := ParseSuite(`suite restart
cell store=wal
scenario restart-live
  calls 16
  at 100ms restart co0
end
`)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	v := runCell(suite.Name, suite.Cells[0], &suite.Scenarios[0], Options{Seed: 7, Logf: t.Logf})
	if v.Verdict != "pass" {
		t.Errorf("%s (%s) delivered %d/%d", v.Verdict, v.Detail, v.Delivered, v.Expected)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the cell, %d before it; an incarnation leaked:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
