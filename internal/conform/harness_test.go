package conform

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"rpcv/internal/obs"
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
	v := runCell(suite.Cells[0], &suite.Scenarios[0], Options{Seed: 7, Logf: t.Logf})
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

// With an artifact directory, a passing cell leaves nothing in it, even
// when a coordinator crashed on the way; a cell that fails leaves one
// flight bundle, named after its cell, holding the assembled call
// timelines and the cell's metrics.
func TestArtifactsBundleOnlyFailedCells(t *testing.T) {
	suite, err := ParseSuite(`suite artifacts
cell store=wal
scenario crash-restart
  calls 16
  at 100ms crash co0
  at 400ms restart co0
end
scenario coordinator-lost
  calls 16
  timeout 2s
  at 50ms crash co0
end
`)
	if err != nil {
		t.Fatal(err)
	}
	cell := suite.Cells[0]

	dir := t.TempDir()
	v := runCell(cell, suite.Scenario("crash-restart"), Options{Seed: 7, ArtifactDir: dir, Logf: t.Logf})
	if v.Verdict != "pass" || v.Bundle != "" {
		t.Fatalf("%s (%s) delivered %d/%d, bundle %q", v.Verdict, v.Detail, v.Delivered, v.Expected, v.Bundle)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("a passing cell left %v, want an empty directory", entries)
	}

	dir = t.TempDir()
	v = runCell(cell, suite.Scenario("coordinator-lost"), Options{Seed: 7, ArtifactDir: dir, Logf: t.Logf})
	if v.Verdict == "pass" {
		t.Fatal("a cell whose only coordinator never came back passed")
	}
	if filepath.Dir(v.Bundle) != dir || !strings.Contains(v.Bundle, sanitizeLabel(cell.Label())) {
		t.Fatalf("bundle %q is not a directory of %s named after cell %q", v.Bundle, dir, cell.Label())
	}
	var timelines []obs.Timeline
	b, err := os.ReadFile(filepath.Join(v.Bundle, "timelines.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &timelines); err != nil || len(timelines) == 0 {
		t.Fatalf("timelines.json: %d timelines, err %v", len(timelines), err)
	}
	b, err = os.ReadFile(filepath.Join(v.Bundle, "metrics", "cell.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `rpcv_coord_`) {
		t.Fatalf("metrics text holds no coordinator series:\n%s", b)
	}
}
