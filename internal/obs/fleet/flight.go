package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rpcv/internal/obs"
)

// profiles captured into every bundle. The debug=1 text forms need no
// tooling to read in a post-mortem.
var bundleProfiles = []string{"goroutine", "heap"}

// CaptureBundle writes a post-mortem flight bundle — the answer to
// "what was the fleet doing when it broke" — into a fresh timestamped
// subdirectory of Config.BundleDir and returns its path:
//
//	timelines.json      all nodes' span rings assembled into per-call
//	                    submit→…→ack timelines (obs.Assemble)
//	trace.chrome.json   the same timelines as Chrome trace_event JSON
//	                    (load in chrome://tracing or Perfetto)
//	metrics/<node>.txt  each node's raw metrics exposition, as served
//	statusz/<node>.json each node's /statusz snapshot (HTTP sources)
//	pprof/<node>-<profile>.txt  goroutine and heap profiles (HTTP sources)
//
// A node that answers its probe now contributes a fresh exposition; a
// dead one its last from before it died. A node that fails a request
// is logged and left out of that file; a failed write stops the
// capture.
func (m *Monitor) CaptureBundle(reason string) (string, error) {
	dir, err := m.bundleDir(reason)
	if err != nil {
		return dir, err
	}
	put := func(name string, b []byte) error {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, b, 0o644)
	}

	var dumps [][]obs.Span
	for _, st := range m.nodes {
		id := sanitize(string(st.src.ID()))
		raw, err := st.src.Scrape(m.timeout)
		if err != nil {
			raw = m.lastHealthy(st)
		}
		if len(raw) > 0 {
			if err := put(filepath.Join("metrics", id+".txt"), raw); err != nil {
				return dir, err
			}
		}
		// A dead node's admin endpoint may still serve its span ring.
		if spans, err := st.src.Spans(m.timeout); err != nil {
			m.cfg.Logf("fleet: bundle: spans from %s: %v", id, err)
		} else if len(spans) > 0 {
			dumps = append(dumps, spans)
		}
		h, ok := st.src.(*HTTPSource)
		if !ok {
			continue
		}
		if body, err := h.fetch("/statusz", m.timeout); err != nil {
			m.cfg.Logf("fleet: bundle: statusz from %s: %v", id, err)
		} else if err := put(filepath.Join("statusz", id+".json"), body); err != nil {
			return dir, err
		}
		for _, prof := range bundleProfiles {
			if body, err := h.fetch("/debug/pprof/"+prof+"?debug=1", m.timeout); err != nil {
				m.cfg.Logf("fleet: bundle: pprof/%s from %s: %v", prof, id, err)
			} else if err := put(filepath.Join("pprof", id+"-"+prof+".txt"), body); err != nil {
				return dir, err
			}
		}
	}

	timelines := obs.Assemble(dumps...)
	b, err := json.MarshalIndent(timelines, "", "  ")
	if err != nil {
		return dir, err
	}
	if err := put("timelines.json", append(b, '\n')); err != nil {
		return dir, err
	}
	return dir, put("trace.chrome.json", obs.ChromeTrace(timelines))
}

// bundleDir creates a directory no earlier capture has used and returns
// its path, <stamp>-<reason>. Two captures within one millisecond share
// a stamp; the second takes <stamp>_2-<reason> rather than write into
// the first's bundle.
func (m *Monitor) bundleDir(reason string) (string, error) {
	if err := os.MkdirAll(m.cfg.BundleDir, 0o755); err != nil {
		return "", err
	}
	stamp := time.Now().Format("20060102-150405.000")
	for n := 1; ; n++ {
		name := stamp
		if n > 1 {
			name = fmt.Sprintf("%s_%d", stamp, n)
		}
		dir := filepath.Join(m.cfg.BundleDir, name+"-"+sanitize(reason))
		if err := os.Mkdir(dir, 0o755); !errors.Is(err, fs.ErrExist) {
			return dir, err
		}
	}
}

// sanitize makes a reason or node ID safe as a path component.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, s)
}
