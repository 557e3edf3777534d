package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"rpcv/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this build")

// TestQuickFiguresMatchGolden regenerates every table of -fig all -quick
// at the default seed and compares the text with testdata/quick.golden:
// the simulated figures are deterministic, so a change that leaves the
// protocol alone leaves them byte for byte. After a change meant to move
// them, rewrite the file with -update and review its diff.
func TestQuickFiguresMatchGolden(t *testing.T) {
	var got bytes.Buffer
	run(&got, order, experiments.Options{Seed: 2004, Quick: true})
	const golden = "testdata/quick.golden"
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs from line %d:\n got  %q\n want %q", golden, i+1, g, w)
		}
	}
}
