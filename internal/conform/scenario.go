package conform

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Cell is one configuration of the daemon matrix: the knobs every
// deployment can turn, all of which must agree on delivered results.
// The one knob left is the coordinators' store.
type Cell struct {
	Store string // "wal" | "memory"
}

// DefaultCell is the cell every omitted key resolves to.
func DefaultCell() Cell {
	return Cell{Store: "wal"}
}

// Label renders the cell canonically, used as its identity in verdicts
// and artifacts.
func (c Cell) Label() string {
	return "store=" + c.Store
}

// Event is one timed fault injection in a scenario.
type Event struct {
	At   time.Duration
	Kind string // "block" | "heal" | "crash" | "restart" | "disk" | "stall" | "skew"
	Node string // logical node name: co<i>, sv<i>, cli<i>
	Peer string // far end for block/heal
	Op   string // disk sub-operation: "fail" | "stall" | "torn" | "heal"
	N    int    // countdown for disk fail/torn
	Dur  time.Duration
}

// Scenario is one deterministic workload plus a fault timeline, run
// identically against every cell of the matrix.
type Scenario struct {
	Name    string
	Clients int           // default 2
	Servers int           // default 3
	Coords  int           // coordinators on the ring, default 1
	Calls   int           // total workload calls, default 40
	Gap     time.Duration // per-client pacing; 0 derives from the timeline
	Timeout time.Duration // per-cell watchdog, default 30s
	Events  []Event
}

// Suite is a parsed scenario file: the config matrix crossed with the
// scenario list.
type Suite struct {
	Name      string
	Cells     []Cell
	Scenarios []Scenario
}

// Scenario returns the named scenario, or nil.
func (s *Suite) Scenario(name string) *Scenario {
	for i := range s.Scenarios {
		if s.Scenarios[i].Name == name {
			return &s.Scenarios[i]
		}
	}
	return nil
}

// Parser limits. Generous for real suites, tight enough that a
// malformed or adversarial file cannot demand absurd resources.
const (
	maxSuiteBytes = 1 << 20
	maxCells      = 64
	maxScenarios  = 64
	maxEvents     = 256
	maxNodes      = 16
	maxCalls      = 100_000
	maxDur        = 10 * time.Minute
)

var validStore = map[string]bool{"wal": true, "memory": true}

// ParseSuite parses the declarative scenario-file format:
//
//	suite <name>
//	matrix store=wal,memory  # cross product
//	cell store=memory        # one explicit cell
//	scenario <name>
//	  clients 2
//	  servers 3
//	  calls 40
//	  coords 2            # coordinators on the ring
//	  gap 25ms            # per-client submit pacing
//	  timeout 30s
//	  at 150ms block co0 -> sv0     # one-way partition
//	  at 600ms heal co0 -> sv0
//	  at 100ms disk co0 fail 3      # fail the 3rd durable op, then stay broken
//	  at 100ms disk co0 stall 40ms  # delay every commit
//	  at 100ms disk co0 torn 1      # next write persists a prefix, errors
//	  at 500ms disk co0 heal
//	  at 150ms stall co0 700ms      # freeze the event loop; TCP stays up
//	  at 150ms skew co0 2s          # clock jump (negative allowed)
//	  at 550ms crash co0
//	  at 700ms restart co0
//	end
//
// Lines are independent; '#' starts a comment; blank lines are
// ignored. Unknown keys, malformed values and out-of-range sizes are
// errors — never panics (fuzzed).
func ParseSuite(src string) (*Suite, error) {
	if len(src) > maxSuiteBytes {
		return nil, fmt.Errorf("conform: suite file exceeds %d bytes", maxSuiteBytes)
	}
	s := &Suite{}
	var cur *Scenario
	seenCells := map[string]bool{}
	for ln, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("conform: line %d: %s", ln+1, fmt.Sprintf(format, args...))
		}
		if cur != nil {
			if f[0] == "end" {
				if len(f) != 1 {
					return nil, fail("end takes no arguments")
				}
				if err := cur.normalize(); err != nil {
					return nil, fail("scenario %q: %v", cur.Name, err)
				}
				s.Scenarios = append(s.Scenarios, *cur)
				cur = nil
				continue
			}
			if err := parseScenarioLine(cur, f); err != nil {
				return nil, fail("%v", err)
			}
			continue
		}
		switch f[0] {
		case "suite":
			if len(f) != 2 {
				return nil, fail("suite wants exactly one name")
			}
			s.Name = f[1]
		case "matrix":
			cells, err := expandMatrix(f[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			for _, c := range cells {
				if !seenCells[c.Label()] {
					seenCells[c.Label()] = true
					s.Cells = append(s.Cells, c)
				}
			}
		case "cell":
			c, err := parseCell(f[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			if !seenCells[c.Label()] {
				seenCells[c.Label()] = true
				s.Cells = append(s.Cells, c)
			}
		case "scenario":
			if len(f) != 2 {
				return nil, fail("scenario wants exactly one name")
			}
			if len(s.Scenarios) >= maxScenarios {
				return nil, fail("more than %d scenarios", maxScenarios)
			}
			for i := range s.Scenarios {
				if s.Scenarios[i].Name == f[1] {
					return nil, fail("duplicate scenario %q", f[1])
				}
			}
			cur = &Scenario{Name: f[1]}
		default:
			return nil, fail("unknown directive %q", f[0])
		}
		if len(s.Cells) > maxCells {
			return nil, fmt.Errorf("conform: more than %d cells", maxCells)
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("conform: scenario %q not closed with end", cur.Name)
	}
	if s.Name == "" {
		return nil, fmt.Errorf("conform: missing suite directive")
	}
	if len(s.Cells) == 0 {
		return nil, fmt.Errorf("conform: suite declares no cells")
	}
	if len(s.Scenarios) == 0 {
		return nil, fmt.Errorf("conform: suite declares no scenarios")
	}
	return s, nil
}

// expandMatrix crosses key=v1,v2,... assignments into cells.
func expandMatrix(kvs []string) ([]Cell, error) {
	if len(kvs) == 0 {
		return nil, fmt.Errorf("matrix wants key=v1,v2 assignments")
	}
	cells := []Cell{DefaultCell()}
	for _, kv := range kvs {
		key, vals, ok := strings.Cut(kv, "=")
		if !ok || vals == "" {
			return nil, fmt.Errorf("malformed matrix assignment %q", kv)
		}
		var next []Cell
		for _, v := range strings.Split(vals, ",") {
			for _, c := range cells {
				if err := setCellKey(&c, key, v); err != nil {
					return nil, err
				}
				next = append(next, c)
			}
			if len(next) > maxCells {
				return nil, fmt.Errorf("matrix expands past %d cells", maxCells)
			}
		}
		cells = next
	}
	return cells, nil
}

// parseCell builds one cell from key=value assignments over defaults.
func parseCell(kvs []string) (Cell, error) {
	c := DefaultCell()
	for _, kv := range kvs {
		key, val, ok := strings.Cut(kv, "=")
		if !ok || val == "" || strings.Contains(val, ",") {
			return c, fmt.Errorf("malformed cell assignment %q", kv)
		}
		if err := setCellKey(&c, key, val); err != nil {
			return c, err
		}
	}
	return c, nil
}

func setCellKey(c *Cell, key, val string) error {
	switch key {
	case "store":
		if !validStore[val] {
			return fmt.Errorf("unknown store %q", val)
		}
		c.Store = val
	case "policy":
		return fmt.Errorf("cell key policy is retired: the schedule is fcfs, the only one")
	default:
		return fmt.Errorf("unknown cell key %q", key)
	}
	return nil
}

func parseScenarioLine(sc *Scenario, f []string) error {
	count := func(what string, max int) (int, error) {
		if len(f) != 2 {
			return 0, fmt.Errorf("%s wants one number", what)
		}
		n, err := strconv.Atoi(f[1])
		if err != nil || n < 1 || n > max {
			return 0, fmt.Errorf("%s %q out of range 1..%d", what, f[1], max)
		}
		return n, nil
	}
	dur := func(what, v string, allowNeg bool) (time.Duration, error) {
		d, err := time.ParseDuration(v)
		if err != nil {
			return 0, fmt.Errorf("%s: bad duration %q", what, v)
		}
		if d > maxDur || d < -maxDur || (!allowNeg && d < 0) {
			return 0, fmt.Errorf("%s: duration %v out of range", what, d)
		}
		return d, nil
	}
	switch f[0] {
	case "clients":
		n, err := count("clients", maxNodes)
		if err != nil {
			return err
		}
		sc.Clients = n
	case "servers":
		n, err := count("servers", maxNodes)
		if err != nil {
			return err
		}
		sc.Servers = n
	case "coords":
		n, err := count("coords", maxNodes)
		if err != nil {
			return err
		}
		sc.Coords = n
	case "calls":
		n, err := count("calls", maxCalls)
		if err != nil {
			return err
		}
		sc.Calls = n
	case "gap":
		if len(f) != 2 {
			return fmt.Errorf("gap wants one duration")
		}
		d, err := dur("gap", f[1], false)
		if err != nil {
			return err
		}
		sc.Gap = d
	case "timeout":
		if len(f) != 2 {
			return fmt.Errorf("timeout wants one duration")
		}
		d, err := dur("timeout", f[1], false)
		if err != nil {
			return err
		}
		sc.Timeout = d
	case "at":
		if len(sc.Events) >= maxEvents {
			return fmt.Errorf("more than %d events", maxEvents)
		}
		ev, err := parseEvent(f, dur)
		if err != nil {
			return err
		}
		sc.Events = append(sc.Events, ev)
	default:
		return fmt.Errorf("unknown scenario directive %q", f[0])
	}
	return nil
}

func parseEvent(f []string, dur func(what, v string, allowNeg bool) (time.Duration, error)) (Event, error) {
	var ev Event
	if len(f) < 3 {
		return ev, fmt.Errorf("at wants: at <offset> <fault> ...")
	}
	at, err := dur("at", f[1], false)
	if err != nil {
		return ev, err
	}
	ev.At = at
	ev.Kind = f[2]
	args := f[3:]
	node := func(v string) (string, error) {
		if !validNodeName(v) {
			return "", fmt.Errorf("bad node name %q (want co<i>, sv<i> or cli<i>)", v)
		}
		return v, nil
	}
	switch ev.Kind {
	case "block", "heal":
		if len(args) != 3 || args[1] != "->" {
			return ev, fmt.Errorf("%s wants: %s <from> -> <to>", ev.Kind, ev.Kind)
		}
		if ev.Node, err = node(args[0]); err != nil {
			return ev, err
		}
		if ev.Peer, err = node(args[2]); err != nil {
			return ev, err
		}
		if ev.Node == ev.Peer {
			return ev, fmt.Errorf("%s: from and to are the same node", ev.Kind)
		}
	case "crash", "restart":
		if len(args) != 1 {
			return ev, fmt.Errorf("%s wants one node", ev.Kind)
		}
		if ev.Node, err = node(args[0]); err != nil {
			return ev, err
		}
	case "disk":
		if len(args) < 2 {
			return ev, fmt.Errorf("disk wants: disk <node> fail|stall|torn|heal ...")
		}
		if ev.Node, err = node(args[0]); err != nil {
			return ev, err
		}
		ev.Op = args[1]
		switch ev.Op {
		case "fail", "torn":
			if len(args) != 3 {
				return ev, fmt.Errorf("disk %s wants a count", ev.Op)
			}
			n, err := strconv.Atoi(args[2])
			if err != nil || n < 1 || n > maxCalls {
				return ev, fmt.Errorf("disk %s: bad count %q", ev.Op, args[2])
			}
			ev.N = n
		case "stall":
			if len(args) != 3 {
				return ev, fmt.Errorf("disk stall wants a duration")
			}
			if ev.Dur, err = dur("disk stall", args[2], false); err != nil {
				return ev, err
			}
		case "heal":
			if len(args) != 2 {
				return ev, fmt.Errorf("disk heal takes no arguments")
			}
		default:
			return ev, fmt.Errorf("unknown disk operation %q", ev.Op)
		}
	case "stall":
		if len(args) != 2 {
			return ev, fmt.Errorf("stall wants: stall <node> <duration>")
		}
		if ev.Node, err = node(args[0]); err != nil {
			return ev, err
		}
		if ev.Dur, err = dur("stall", args[1], false); err != nil {
			return ev, err
		}
	case "skew":
		if len(args) != 2 {
			return ev, fmt.Errorf("skew wants: skew <node> <duration>")
		}
		if ev.Node, err = node(args[0]); err != nil {
			return ev, err
		}
		if ev.Dur, err = dur("skew", args[1], true); err != nil {
			return ev, err
		}
	default:
		return ev, fmt.Errorf("unknown fault %q", ev.Kind)
	}
	return ev, nil
}

// validNodeName accepts co<i>, sv<i>, cli<i> with a small index.
func validNodeName(v string) bool {
	var digits string
	switch {
	case strings.HasPrefix(v, "cli"):
		digits = v[3:]
	case strings.HasPrefix(v, "co"), strings.HasPrefix(v, "sv"):
		digits = v[2:]
	default:
		return false
	}
	if len(digits) == 0 || len(digits) > 3 {
		return false
	}
	for _, r := range digits {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// normalize applies defaults and validates cross-field constraints.
func (sc *Scenario) normalize() error {
	if sc.Clients == 0 {
		sc.Clients = 2
	}
	if sc.Servers == 0 {
		sc.Servers = 3
	}
	if sc.Coords == 0 {
		sc.Coords = 1
	}
	if sc.Calls == 0 {
		sc.Calls = 40
	}
	if sc.Calls < sc.Clients {
		return fmt.Errorf("calls %d < clients %d", sc.Calls, sc.Clients)
	}
	if sc.Timeout == 0 {
		sc.Timeout = 30 * time.Second
	}
	sort.SliceStable(sc.Events, func(i, j int) bool { return sc.Events[i].At < sc.Events[j].At })
	for _, ev := range sc.Events {
		if err := sc.checkEventNode(ev.Node); err != nil {
			return err
		}
		if ev.Peer != "" {
			if err := sc.checkEventNode(ev.Peer); err != nil {
				return err
			}
		}
		if (ev.Kind == "crash" || ev.Kind == "restart" || ev.Kind == "disk") && strings.HasPrefix(ev.Node, "cli") {
			return fmt.Errorf("%s targets client %s; clients host the workload and cannot be faulted that way", ev.Kind, ev.Node)
		}
	}
	return nil
}

// checkEventNode verifies a fault's target exists in this scenario.
func (sc *Scenario) checkEventNode(name string) error {
	var idx int
	var limit int
	switch {
	case strings.HasPrefix(name, "cli"):
		idx, limit = atoiSafe(name[3:]), sc.Clients
	case strings.HasPrefix(name, "co"):
		idx, limit = atoiSafe(name[2:]), sc.Coords
	case strings.HasPrefix(name, "sv"):
		idx, limit = atoiSafe(name[2:]), sc.Servers
	default:
		return fmt.Errorf("bad node name %q", name)
	}
	if idx < 0 || idx >= limit {
		return fmt.Errorf("node %q out of range (scenario has clients=%d coords=%d servers=%d)",
			name, sc.Clients, sc.Coords, sc.Servers)
	}
	return nil
}

func atoiSafe(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return n
}

// LastEventAt returns the offset of the latest fault, 0 when none.
func (sc *Scenario) LastEventAt() time.Duration {
	if len(sc.Events) == 0 {
		return 0
	}
	return sc.Events[len(sc.Events)-1].At
}

// DefaultSuite is the embedded conformance + chaos suite rpcv-sim runs
// when no file is given: both stores against scenarios covering the
// full fault taxonomy and the three ways a fault can strand a late
// reply.
const DefaultSuite = `suite default

# The config matrix. Every cell must deliver the identical result set.
# -quick runs both cells: the default and the memory store.
cell store=wal
cell store=memory

# No faults: the conformance baseline.
scenario baseline
  calls 40
end

# Asymmetric partition: the coordinator can hear sv0 but not reach it
# (assignments black-holed, heartbeats still arriving), then heals.
scenario oneway-partition
  servers 3
  calls 40
  at 150ms block co0 -> sv0
  at 700ms heal co0 -> sv0
end

# Slow-then-dead disk mid-group-commit, then crash-restart recovery.
scenario disk-fault
  calls 30
  at 100ms disk co0 stall 30ms
  at 300ms disk co0 fail 1
  at 500ms disk co0 heal
  at 550ms crash co0
  at 750ms restart co0
end

# Stalled, not dead: the event loop freezes while TCP stays up, so peers
# must decide on heartbeat silence alone.
scenario stalled-coordinator
  calls 30
  at 150ms stall co0 700ms
end

# Clock skew: the coordinator's clock jumps forward (mass suspicion),
# then back to true.
scenario clock-skew
  calls 30
  at 150ms skew co0 2s
  at 800ms skew co0 0s
end

# Late replies (standing work offers, result subscriptions) under the
# faults that can strand one. New scenarios go below this line: -quick
# runs the first two that inject faults.

# A late assignment into a one-way partition: sv0 keeps pulling, so it
# keeps a standing offer while nothing the coordinator sends reaches it,
# and calls keep arriving. What is pushed into the hole must complete
# through suspicion and ServerSync requeue, on sv1.
scenario pushed-into-partition
  servers 2
  calls 40
  at 120ms block co0 -> sv0
  at 900ms heal co0 -> sv0
end

# A coordinator stalled past the suspicion timeout while it holds offers
# and subscriptions: when it resumes they are as old as silence gets and
# must not be spent on the calls queued behind the stall.
scenario stalled-with-offers
  calls 40
  gap 20ms
  at 200ms stall co0 600ms
end

# A subscribed client that stops hearing the coordinator: pushed results
# are lost like any reply; the first poll after the heal delivers them,
# none twice.
scenario pushed-to-deaf-client
  calls 40
  at 150ms block co0 -> cli0
  at 700ms heal co0 -> cli0
end

# A ring of two whose replica crashes mid-run and comes back: the
# primary's replication rounds to it are given up while it is down and
# resume once it answers again, with every call completed once.
scenario ring-secondary-restart
  coords 2
  servers 2
  calls 40
  at 150ms crash co1
  at 500ms restart co1
end
`
