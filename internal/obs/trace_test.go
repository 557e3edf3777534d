package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"rpcv/internal/proto"
)

func callID(seq uint64) proto.CallID {
	return proto.CallID{User: "u", Session: 1, Seq: proto.RPCSeq(seq)}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer("n1", 4)
	base := time.Unix(0, 0)
	for i := 0; i < 6; i++ {
		tr.EventAt(base.Add(time.Duration(i)), callID(uint64(i)), StageSubmit, "")
	}
	if got := tr.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	d := tr.Dump()
	if len(d) != 4 {
		t.Fatalf("Dump len = %d, want 4 (ring capacity)", len(d))
	}
	// Oldest retained first: spans 2,3,4,5.
	for i, sp := range d {
		if want := proto.RPCSeq(i + 2); sp.Call.Seq != want {
			t.Fatalf("dump[%d].Seq = %d, want %d", i, sp.Call.Seq, want)
		}
	}

	short := NewTracer("n2", 3)
	short.EventAt(base, callID(9), StageExec, "x")
	if d := short.Dump(); len(d) != 1 || d[0].Stage != StageExec || d[0].Node != "n2" {
		t.Fatalf("not-full dump = %+v", d)
	}
}

func TestTracerConcurrency(t *testing.T) {
	tr := NewTracer("n", 64)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				tr.Event(callID(uint64(i)), StageExec, "")
				_ = tr.Dump()
			}
		}(i)
	}
	wg.Wait()
	if tr.Total() != 2000 {
		t.Fatalf("Total = %d, want 2000", tr.Total())
	}
}

// TestAssemble proves per-node dumps join into one causal timeline:
// the client saw submit/durable/ack, one coordinator saw
// enqueue/dispatch/requeue (a server died), another coordinator issued
// a speculative duplicate, the server saw exec. The assembled
// timeline must be complete and time-ordered with both hops intact.
func TestAssemble(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	call := callID(1)

	cli := NewTracer("client", 16)
	cli.EventAt(at(0), call, StageSubmit, "noop")
	cli.EventAt(at(1), call, StageDurable, "submit log")
	cli.EventAt(at(100), call, StageAck, "result delivered")

	co := NewTracer("coord-a", 16)
	co.EventAt(at(2), call, StageEnqueue, "from client")
	co.EventAt(at(3), call, StageDispatch, "sv0")
	co.EventAt(at(40), call, StageRequeue, "")

	co2 := NewTracer("coord-b", 16)
	co2.EventAt(at(51), call, StageSpeculate, "sv1")
	co2.EventAt(at(52), call, StageDispatch, "sv1")
	co2.EventAt(at(90), call, StageResult, "from sv1")

	sv := NewTracer("sv1", 16)
	sv.EventAt(at(80), call, StageExec, "2ms")

	// A second, unrelated call must come out as its own timeline.
	other := callID(2)
	cli.EventAt(at(5), other, StageSubmit, "")

	tls := Assemble(cli.Dump(), co.Dump(), co2.Dump(), sv.Dump())
	if len(tls) != 2 {
		t.Fatalf("timelines = %d, want 2", len(tls))
	}
	tl := tls[0]
	if tl.Call != call {
		t.Fatalf("first timeline call = %v, want %v", tl.Call, call)
	}
	want := []Stage{StageSubmit, StageDurable, StageEnqueue, StageDispatch,
		StageRequeue, StageSpeculate, StageDispatch, StageExec,
		StageResult, StageAck}
	got := tl.Stages()
	if len(got) != len(want) {
		t.Fatalf("stages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
	if !tl.Has(StageRequeue) || !tl.Has(StageSpeculate) {
		t.Fatal("requeue and speculate hops must survive assembly")
	}
	if sp, ok := tl.Stage(StageExec); !ok || sp.Node != "sv1" {
		t.Fatalf("exec span = %+v, %v", sp, ok)
	}
	for i := 1; i < len(tl.Spans); i++ {
		if tl.Spans[i].At.Before(tl.Spans[i-1].At) {
			t.Fatalf("spans out of order at %d: %+v", i, tl.Spans)
		}
	}
}

func TestAssembleTieBreaksByStageRank(t *testing.T) {
	// Same timestamp: causal rank must order submit before ack.
	at := time.Unix(2000, 0)
	call := callID(3)
	a := []Span{{Call: call, Stage: StageAck, Node: "c", At: at}}
	b := []Span{{Call: call, Stage: StageSubmit, Node: "c", At: at}}
	tl := Assemble(a, b)[0]
	if tl.Spans[0].Stage != StageSubmit || tl.Spans[1].Stage != StageAck {
		t.Fatalf("tie-break failed: %v", tl.Stages())
	}
}

func TestChromeTrace(t *testing.T) {
	base := time.Unix(3000, 0)
	call := callID(4)
	tr := NewTracer("n1", 8)
	tr.EventAt(base, call, StageSubmit, "")
	tr.EventAt(base.Add(time.Millisecond), call, StageAck, "")
	out := ChromeTrace(Assemble(tr.Dump()))

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, out)
	}
	var phases []string
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev["ph"].(string))
	}
	counts := map[string]int{}
	for _, p := range phases {
		counts[p]++
	}
	// 1 complete event, 2 instants, 2 process_name metadata (calls + n1).
	if counts["X"] != 1 || counts["i"] != 2 || counts["M"] != 2 {
		t.Fatalf("event phases = %v", counts)
	}

	if string(ChromeTrace(nil)) != `{"traceEvents":[]}` {
		t.Fatal("empty trace must render an empty event array")
	}
}
