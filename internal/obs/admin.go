package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"
)

// Admin is a node's observability HTTP server. It owns a private mux
// (nothing leaks onto http.DefaultServeMux) serving:
//
//	/metrics        Prometheus text exposition of the registry
//	/statusz        JSON: node, uptime, metrics snapshot, and every
//	                registered status section
//	/healthz        a real liveness probe: "ok" only while the
//	                registered Health probe passes; 503 with the
//	                reason otherwise (no probe: "ok" while serving)
//	/tracez         JSON array of the span ring, oldest first
//	/debug/pprof/   the standard net/http/pprof handlers
type Admin struct {
	node  string
	reg   *Registry
	tr    *Tracer
	start time.Time

	ln  net.Listener
	srv *http.Server

	mu       sync.Mutex
	sections map[string]func() any
	health   func() error
}

// ServeAdmin binds addr (host:port; :0 picks a free port) and serves
// o's registry and tracer until Close. The listener is up when
// ServeAdmin returns — Addr is immediately scrapeable.
func ServeAdmin(addr string, o *Observer) (*Admin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	a := &Admin{
		node:     string(o.Node()),
		reg:      o.Registry(),
		tr:       o.Tracer(),
		start:    time.Now(),
		ln:       ln,
		sections: map[string]func() any{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/statusz", a.handleStatusz)
	mux.HandleFunc("/tracez", a.handleTracez)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a.srv = &http.Server{Handler: mux}
	RegisterBuildInfo(a.reg, o.Node())
	go a.srv.Serve(ln)
	return a, nil
}

// Addr returns the bound address (useful with :0).
func (a *Admin) Addr() string { return a.ln.Addr().String() }

// Status registers a named /statusz section. fn runs per request and
// must be safe to call from the HTTP goroutine — event-loop state must
// be fetched via the runtime's Do (see the cmd daemons). Its result is
// JSON-marshaled. Re-registering a name replaces the section.
func (a *Admin) Status(name string, fn func() any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sections[name] = fn
}

// Health registers the liveness probe backing /healthz. fn runs per
// request from the HTTP goroutine and must itself bound how long it
// blocks (the daemons probe the event loop via rt's Ping with a short
// timeout). A nil error means alive; an error turns /healthz into a
// 503 carrying the reason, so the flight recorder — or any external
// prober — learns a stalled event loop is not "ok".
func (a *Admin) Health(fn func() error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.health = fn
}

// Close stops the server and releases the port.
func (a *Admin) Close() error {
	if a == nil {
		return nil
	}
	return a.srv.Close()
}

func (a *Admin) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	a.mu.Lock()
	probe := a.health
	a.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if probe != nil {
		if err := probe(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "unhealthy: %v\n", err)
			return
		}
	}
	fmt.Fprintln(w, "ok")
}

func (a *Admin) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = a.reg.WritePrometheus(w)
}

func (a *Admin) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	a.mu.Lock()
	names := make([]string, 0, len(a.sections))
	for n := range a.sections {
		names = append(names, n)
	}
	fns := make(map[string]func() any, len(a.sections))
	for n, fn := range a.sections {
		fns[n] = fn
	}
	a.mu.Unlock()
	sort.Strings(names)

	sections := map[string]any{}
	for _, n := range names {
		sections[n] = runSection(fns[n])
	}
	writeJSON(w, map[string]any{
		"node":     a.node,
		"now":      time.Now(),
		"uptime":   time.Since(a.start).String(),
		"metrics":  a.reg.Snapshot(),
		"sections": sections,
	})
}

// runSection shields the scrape from one section's panic: the broken
// section reports itself as an "error" field and every other section
// still renders, instead of the whole /statusz dying with a 500.
func runSection(fn func() any) (out any) {
	defer func() {
		if p := recover(); p != nil {
			out = map[string]any{"error": fmt.Sprintf("panic: %v", p)}
		}
	}()
	return fn()
}

func (a *Admin) handleTracez(w http.ResponseWriter, _ *http.Request) {
	spans := a.tr.Dump()
	if spans == nil {
		spans = []Span{}
	}
	writeJSON(w, spans)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
