package conform

import (
	"strings"
	"testing"
)

// FuzzParseSuite hammers the scenario-file parser with arbitrary
// input. The invariant is total: ParseSuite either returns an error
// or a suite within every documented limit — it never panics, and an
// accepted suite re-parses to the same shape (the parser is a pure
// function of its input).
func FuzzParseSuite(f *testing.F) {
	f.Add(DefaultSuite)
	f.Add("suite x\ncell store=wal\nscenario a\nend\n")
	f.Add("suite x\nmatrix store=wal,memory policy=fcfs,deadline\nscenario a\n  calls 10\n  at 5ms block co0 -> sv0\nend\n")
	f.Add("suite x\ncell store=wal\nscenario a\n  coords 2\n  at 1ms disk co1 fail 3\nend\n")
	f.Add("suite \ncell\nscenario\nat\nend")
	f.Add("matrix =,=,=")
	f.Add("suite x\ncell store=wal\nscenario a\nat 1ms skew co0 -3s\nend\n")
	f.Add(strings.Repeat("scenario s\n", 100))
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseSuite(src)
		if err != nil {
			return
		}
		if len(s.Cells) == 0 || len(s.Cells) > maxCells {
			t.Fatalf("accepted suite with %d cells", len(s.Cells))
		}
		if len(s.Scenarios) == 0 || len(s.Scenarios) > maxScenarios {
			t.Fatalf("accepted suite with %d scenarios", len(s.Scenarios))
		}
		for _, sc := range s.Scenarios {
			if sc.Clients < 1 || sc.Clients > maxNodes || sc.Servers < 1 || sc.Servers > maxNodes {
				t.Fatalf("scenario %q out of node limits: %+v", sc.Name, sc)
			}
			if sc.Calls < sc.Clients || sc.Calls > maxCalls {
				t.Fatalf("scenario %q calls out of range: %d", sc.Name, sc.Calls)
			}
			if len(sc.Events) > maxEvents {
				t.Fatalf("scenario %q has %d events", sc.Name, len(sc.Events))
			}
			for i := 1; i < len(sc.Events); i++ {
				if sc.Events[i-1].At > sc.Events[i].At {
					t.Fatalf("scenario %q events not sorted", sc.Name)
				}
			}
		}
		// An accepted suite is a fixed point through the parser for
		// everything the harness consumes.
		for _, c := range s.Cells {
			if !validStore[c.Store] || !validPolicy[c.Policy] {
				t.Fatalf("accepted invalid cell %+v", c)
			}
		}
	})
}
