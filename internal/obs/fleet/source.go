package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"rpcv/internal/obs"
	"rpcv/internal/proto"
)

// Source is one node as the recorder sees it. Every call must
// complete (or fail) within the given timeout.
type Source interface {
	ID() proto.NodeID
	// Scrape returns the node's raw metrics exposition. It fails when
	// the node does not answer or fails its liveness probe.
	Scrape(timeout time.Duration) ([]byte, error)
	// Spans returns the node's span ring.
	Spans(timeout time.Duration) ([]obs.Span, error)
}

// HTTPSource reads one daemon's admin endpoint ("host:port" or a full
// "http://host:port" base).
type HTTPSource struct {
	Node proto.NodeID
	Base string
}

// NewHTTPSource normalizes addr into a source for node.
func NewHTTPSource(node proto.NodeID, addr string) *HTTPSource {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &HTTPSource{Node: node, Base: strings.TrimRight(addr, "/")}
}

func (h *HTTPSource) ID() proto.NodeID { return h.Node }

// fetch GETs path and fails on any status but 200, quoting the body.
func (h *HTTPSource) fetch(path string, timeout time.Duration) ([]byte, error) {
	cl := &http.Client{Timeout: timeout}
	resp, err := cl.Get(h.Base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// Scrape checks /healthz, then fetches /metrics.
func (h *HTTPSource) Scrape(timeout time.Duration) ([]byte, error) {
	if _, err := h.fetch("/healthz", timeout); err != nil {
		return nil, err
	}
	return h.fetch("/metrics", timeout)
}

// Spans fetches and decodes /tracez.
func (h *HTTPSource) Spans(timeout time.Duration) ([]obs.Span, error) {
	body, err := h.fetch("/tracez", timeout)
	if err != nil {
		return nil, err
	}
	var spans []obs.Span
	if err := json.Unmarshal(body, &spans); err != nil {
		return nil, fmt.Errorf("/tracez: %w", err)
	}
	return spans, nil
}

// FuncSource is an in-process source: the conform harness hands the
// recorder its cell's shared registry and span rings without HTTP.
type FuncSource struct {
	Node proto.NodeID
	// Metrics returns the exposition; an error counts as a failed round.
	Metrics func() ([]byte, error)
	// Trace returns the span dump.
	Trace func() []obs.Span
}

func (f *FuncSource) ID() proto.NodeID { return f.Node }

func (f *FuncSource) Scrape(time.Duration) ([]byte, error) { return f.Metrics() }

func (f *FuncSource) Spans(time.Duration) ([]obs.Span, error) { return f.Trace(), nil }

// ParseTargets parses the rpcv-mon -nodes syntax "id=admin-addr,..."
// into HTTP sources.
func ParseTargets(s string) ([]Source, error) {
	var out []Source
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("fleet: malformed target %q (want id=admin-addr)", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("fleet: duplicate target %q", id)
		}
		seen[id] = true
		out = append(out, NewHTTPSource(proto.NodeID(id), addr))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fleet: no targets")
	}
	return out, nil
}
