package cluster

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"rpcv/internal/proto"
	"rpcv/internal/server"
)

var updateLayout = flag.Bool("update", false, "rewrite testdata/stored_layout.golden from this run")

// TestStoredLayoutIsUnchanged pins what a coordinator, a server and a
// client leave on their disks — every key, with the length and SHA-256
// of its value — at five points of a small deployment's life: the calls
// assigned; their results logged on a server whose coordinator is down;
// every call finished after the coordinator's restart; the calls
// collected; and a second restart. The payloads straddle the line
// between inline and blob (64 B, 4 095 B, 4 096 B, 64 KiB), so every
// layout the tree writes is there: a whole logged message and a log
// header beside its payload, a whole job record and a job header beside
// its params and output, the watermarks. A change to what is stored
// where, or to one stored byte, fails here; one meant to make it
// rewrites the file with -update, and the file's diff is its review.
func TestStoredLayoutIsUnchanged(t *testing.T) {
	cl := New(Config{
		Seed: 29, Servers: 1, Clients: 1, Parallelism: 4,
		HeartbeatPeriod: time.Second, SuspicionTimeout: 10 * time.Second, PollPeriod: time.Second,
		Services: map[string]server.Service{"echo": func(p []byte) ([]byte, error) { return p, nil }},
	})
	for i, size := range []int{64, proto.BlobMin - 1, proto.BlobMin, 64 << 10} {
		params := make([]byte, size)
		for j := range params {
			params[j] = byte(31*i + j)
		}
		cl.Submit(0, "echo", params, 3*time.Second, size)
	}
	co := CoordinatorID(0)
	var got strings.Builder
	snapshot := func(stage string) {
		fmt.Fprintf(&got, "== %s\n", stage)
		for _, id := range []proto.NodeID{co, ServerID(0), ClientID(0)} {
			disk := cl.World.Disk(id)
			for _, key := range disk.Keys("") {
				v, _ := disk.Read(key)
				fmt.Fprintf(&got, "%s %s %d %x\n", id, key, len(v), sha256.Sum256(v))
			}
		}
	}

	cl.World.RunFor(2 * time.Second)
	snapshot("assigned")
	cl.World.Crash(co)
	cl.World.RunFor(5 * time.Second)
	snapshot("results logged, coordinator down")
	cl.World.Start(co)
	if !cl.RunUntilResults(0, 4, 2*time.Minute) {
		t.Fatalf("%d results of 4 after the coordinator's restart", cl.Client(0).ResultCount())
	}
	snapshot("finished")
	// The next call's polls acknowledge the first four, which collects them.
	cl.Submit(0, "echo", []byte("next"), time.Second, 4)
	if !cl.RunUntilResults(0, 5, time.Minute) {
		t.Fatalf("%d results of 5", cl.Client(0).ResultCount())
	}
	cl.World.RunFor(30 * time.Second)
	snapshot("collected")
	cl.World.Restart(co)
	cl.World.RunFor(5 * time.Second)
	snapshot("restarted")

	// The scenario reaches every layout it claims to pin.
	for _, key := range []string{"coord/job/", "coord/blob/", "coord/w/", "server/result/", "blob/server/result/", "client/submit/", "blob/client/submit/"} {
		if !strings.Contains(got.String(), " "+key) {
			t.Fatalf("no disk ever held a key under %s: the scenario no longer exercises that layout", key)
		}
	}
	const golden = "testdata/stored_layout.golden"
	if *updateLayout {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("%s differs at line %d:\n got %s\nwant %s", golden, i+1, g, w)
			}
		}
	}
}
