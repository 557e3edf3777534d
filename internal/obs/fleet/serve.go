package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"text/tabwriter"
	"time"
)

// Handler serves the monitor's cluster view:
//
//	/clusterz        latest fleet verdict as JSON; ?format=text renders
//	                 the human table instead
//	/historyz        the full metric history rings as JSON
//	/healthz         200 when the latest fleet level is ok or warn,
//	                 503 with the level name otherwise — so a monitor
//	                 can itself sit behind a monitor
//	/capture         POST: capture a flight bundle now ("manual"
//	                 reason, or ?reason=...)
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/clusterz", func(w http.ResponseWriter, r *http.Request) {
		v := m.Verdict()
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			WriteText(w, v)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
	mux.HandleFunc("/historyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.History())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		v := m.Verdict()
		if v.Level >= LevelCritical {
			http.Error(w, "fleet "+v.Level.String(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/capture", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		reason := r.URL.Query().Get("reason")
		if reason == "" {
			reason = "manual"
		}
		dir, err := m.CaptureBundle(reason)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, dir)
	})
	return mux
}

// WriteText renders a verdict as the human-readable cluster table —
// the ?format=text face of /clusterz and the body of the live top
// view.
func WriteText(w io.Writer, v FleetVerdict) {
	fmt.Fprintf(w, "fleet %s", strings.ToUpper(v.Level.String()))
	if !v.At.IsZero() {
		fmt.Fprintf(w, " at %s", v.At.Format("15:04:05.000"))
	}
	fmt.Fprintf(w, " (%d nodes", len(v.Nodes))
	if len(v.Shards) > 0 {
		fmt.Fprintf(w, ", %d shards", len(v.Shards))
	}
	fmt.Fprintln(w, ")")

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tROLE\tLEVEL\tSCRAPED\tDETAIL")
	for _, n := range v.Nodes {
		age := "-"
		if !n.LastScrape.IsZero() && !v.At.IsZero() {
			age = v.At.Sub(n.LastScrape).Round(100*time.Millisecond).String() + " ago"
		}
		role := n.Role
		if role == "" {
			role = "?"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n",
			n.Node, role, n.Level, age, strings.Join(n.Reasons, "; "))
	}
	tw.Flush()

	if len(v.Shards) > 0 {
		fmt.Fprintln(w)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "SHARD\tMEMBERS\tLEVEL\tJOBS\tQUEUE\tIDLE\tPUSHED T/R\tREQUEUE/S\tDISPATCH P99\tBURN\tDETAIL")
		for _, s := range v.Shards {
			members := make([]string, len(s.Members))
			for i, mID := range s.Members {
				members[i] = string(mID)
			}
			fmt.Fprintf(tw, "%d\t%s\t%s\t%.0f\t%.0f\t%.0f\t%.0f/%.0f\t%.2f\t%s\t%d%%\t%s\n",
				s.Shard, strings.Join(members, ","), s.Level, s.Jobs, s.QueueDepth,
				s.IdleSlots, s.PushedTasks, s.PushedResults, s.RequeueRate,
				s.DispatchP99.Round(time.Microsecond), int(s.Burn*100), strings.Join(s.Reasons, "; "))
		}
		tw.Flush()
	}
}

// Text renders WriteText into a string.
func Text(v FleetVerdict) string {
	var b strings.Builder
	WriteText(&b, v)
	return b.String()
}

// TopView renders the verdict preceded by an ANSI clear-and-home, so
// printing successive verdicts to a terminal gives a live top-style
// display (rpcv-mon -top).
func TopView(v FleetVerdict) string {
	return "\x1b[2J\x1b[H" + Text(v)
}
