// Command rpcv-lint runs rpcv's project-specific static analyzers
// (internal/lint), diskerr and loopexclusive, over package patterns
// (./... when none is given). It is what `make lint` runs:
//
//	go run ./cmd/rpcv-lint ./...
//
// It takes no flags. Every matched package is loaded up front together
// with its _test.go files, so one run covers test code and the
// loopexclusive call-graph walk crosses package boundaries. Findings
// print one a line as file:line:col: [analyzer] message; the exit
// status is 1 when there is any.
package main

import (
	"fmt"
	"os"

	"rpcv/internal/lint"
	"rpcv/internal/lint/loader"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := loader.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpcv-lint:", err)
		os.Exit(1)
	}
	findings, err := lint.Run(prog, lint.Suite())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpcv-lint:", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Printf("%s: [%s] %s\n", f.Pos, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "rpcv-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
