// Command rpcv-lint runs rpcv's project-specific static analyzers
// (internal/lint): loopexclusive, protocomplete and diskerr. It is both a standalone multichecker and a vet tool.
//
// Standalone, over package patterns (what `make lint` runs):
//
//	go run ./cmd/rpcv-lint ./...
//	go run ./cmd/rpcv-lint -only loopexclusive,diskerr ./internal/rt
//
// As a vet tool, speaking the go command's (unpublished) vettool
// protocol — -flags, -V=full, and a JSON config per package:
//
//	go build -o /tmp/rpcv-lint ./cmd/rpcv-lint
//	go vet -vettool=/tmp/rpcv-lint ./...
//
// Standalone mode loads every requested package up front, so the
// loopexclusive call-graph walk crosses package boundaries; under go
// vet each package is checked in isolation (go vet's caching in
// exchange). Exit status is 1 (standalone) or 2 (vettool) when any
// finding is reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rpcv/internal/lint"
	"rpcv/internal/lint/analysis"
	"rpcv/internal/lint/loader"
)

func main() {
	args := os.Args[1:]
	// The go command's vettool handshake comes before normal flag
	// parsing: `rpcv-lint -V=full` must print a version banner and
	// `rpcv-lint -flags` a JSON description of analyzer flags.
	if len(args) == 1 {
		switch args[0] {
		case "-V=full", "--V=full":
			fmt.Println("rpcv-lint version v1.0.0")
			return
		case "-flags", "--flags":
			fmt.Println("[]")
			return
		}
	}
	if len(args) >= 1 && strings.HasSuffix(args[len(args)-1], ".cfg") {
		os.Exit(runVetTool(args[len(args)-1]))
	}

	only := flag.String("only", "", "comma-separated subset of analyzers to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rpcv-lint [-only names] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Suite() {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Suite()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		analyzers = subset(analyzers, *only)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := loader.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpcv-lint:", err)
		os.Exit(1)
	}
	findings, err := lint.Run(prog, analyzers)
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

func subset(all []*analysis.Analyzer, names string) []*analysis.Analyzer {
	keep := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		keep[strings.TrimSpace(n)] = true
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if keep[a.Name] {
			out = append(out, a)
			delete(keep, a.Name)
		}
	}
	for n := range keep {
		fmt.Fprintf(os.Stderr, "rpcv-lint: unknown analyzer %q\n", n)
		os.Exit(1)
	}
	return out
}

// runVetTool executes one vettool invocation: analyze the single
// package described by the config, report findings on stderr (the go
// command relays them), and write the vetx output file the go command
// expects even though rpcv's analyzers exchange no facts.
func runVetTool(cfgPath string) int {
	cfg, err := loader.ReadVetConfig(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpcv-lint:", err)
		return 1
	}
	// The output file must exist even for fact-free runs.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "rpcv-lint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	prog, err := loader.LoadVetConfig(cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "rpcv-lint:", err)
		return 1
	}
	findings, err := lint.Run(prog, lint.Suite())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpcv-lint:", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", f.Pos, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
