// Package obs is the live observability plane (beyond the paper): a
// concurrency-safe labeled metrics registry, CallID-correlated
// task-lifecycle tracing, and an admin HTTP server every daemon can
// mount.
//
// The paper's evaluation is post-hoc — throughput and fault curves
// reconstructed after the run — and so was this repo's until now:
// internal/metrics feeds only the offline experiment harness. obs
// makes the same signals available while the grid runs:
//
//   - Registry holds labeled Counters, Gauges, Histograms, and
//     scrape-time func metrics. All mutators are safe for concurrent
//     use and nil-safe: a nil *Registry hands out nil instruments
//     whose methods no-op, so instrumentation is unconditional in the
//     protocol code and free when observability is off.
//   - Tracer is a fixed-size per-node ring buffer of Span events. A
//     call's life — submit, enqueue, dispatch, exec, result,
//     logged-durable, ack, plus requeue/speculate hops
//     — is stamped on whichever node observes each stage; Assemble
//     joins per-node dumps into end-to-end timelines, and ChromeTrace
//     renders them as Chrome trace_event JSON (chrome://tracing,
//     Perfetto).
//   - ServeAdmin mounts /metrics (Prometheus text exposition),
//     /statusz (JSON snapshot plus registered status sections),
//     /healthz, /tracez, and net/http/pprof on a private mux.
//
// An Observer bundles one node's Registry and Tracer; experiment
// harnesses share a single Registry across many nodes (metrics are
// labeled node="<id>") while each node keeps its own span ring.
//
// obs.Histogram is the tree's one histogram: lock-free, constant
// memory, log-bucketed. Offline analysis that wants exact quantiles
// keeps every observation in a metrics.Sample instead.
package obs

import "rpcv/internal/proto"

// Observer bundles the observability handles one node threads through
// its config: a metrics registry (possibly shared with other nodes)
// and this node's private span ring. A nil *Observer is valid and
// turns every instrument into a no-op.
type Observer struct {
	node proto.NodeID
	reg  *Registry
	tr   *Tracer
}

// DefaultSpanRing is the per-node span ring capacity used by New.
const DefaultSpanRing = 4096

// New creates an Observer with a fresh Registry and a DefaultSpanRing-
// sized Tracer for the named node.
func New(node proto.NodeID) *Observer {
	return NewWith(node, NewRegistry())
}

// NewWith creates an Observer for node that records metrics into the
// shared registry reg (label metrics with node="<id>" to keep nodes
// apart). The span ring is still per-node.
func NewWith(node proto.NodeID, reg *Registry) *Observer {
	return &Observer{node: node, reg: reg, tr: NewTracer(node, DefaultSpanRing)}
}

// Node returns the observed node's ID ("" on a nil Observer).
func (o *Observer) Node() proto.NodeID {
	if o == nil {
		return ""
	}
	return o.node
}

// Registry returns the metrics registry (nil on a nil Observer; a nil
// Registry's instruments all no-op).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the node's span ring (nil on a nil Observer; a nil
// Tracer's Event is a no-op).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}
