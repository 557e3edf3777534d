// Package lint assembles rpcv's project-specific static analyzers into
// one suite and runs them over a loaded program. The analyzers encode
// the invariants the codebase previously policed by convention:
//
//   - loopexclusive: event-loop discipline (no blocking primitives
//     reachable from rpcv:loop-only code; rpcv:loop-owned state only
//     touched on the loop).
//   - diskerr: no silently discarded errors from node.Disk / store
//     engine calls.
//
// cmd/rpcv-lint runs the suite once over package patterns and their
// tests (`make lint`). That a message type is wired into the proto
// codec is checked by internal/proto's tests, not here.
package lint

import (
	"go/token"
	"sort"

	"rpcv/internal/lint/analysis"
	"rpcv/internal/lint/diskerr"
	"rpcv/internal/lint/loopexclusive"
)

// Suite returns rpcv's analyzers in deterministic order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		diskerr.Analyzer,
		loopexclusive.Analyzer,
	}
}

// Finding is one diagnostic, resolved to a printable position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Run applies each analyzer to each package of the program and returns
// all findings sorted by position.
func Run(prog *analysis.Program, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Program:   prog,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: name,
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
