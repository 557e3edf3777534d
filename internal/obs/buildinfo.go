package obs

import (
	"runtime"
	"runtime/debug"
	"time"

	"rpcv/internal/proto"
)

// processStart anchors rpcv_uptime_seconds. Package-level (not per
// Admin) so the gauge measures the process: a drop is a restart,
// whenever the admin endpoint was mounted.
var processStart = time.Now()

// RegisterBuildInfo publishes the two identity metrics every daemon's
// registry carries, so whatever scrapes /metrics can tell versions and
// restarts apart:
//
//	rpcv_build_info{node,go,path,version[,revision][,modified]} 1
//	rpcv_uptime_seconds{node}
//
// Labels come from runtime/debug.ReadBuildInfo: the main module path
// and version, plus the VCS revision and dirty flag when the binary
// was built from a checkout. ServeAdmin calls this for the node it
// serves; calling it again for the same node is idempotent.
func RegisterBuildInfo(reg *Registry, node proto.NodeID) {
	if reg == nil {
		return
	}
	nl := L("node", string(node))
	labels := []Label{nl, L("go", runtime.Version())}
	if bi, ok := debug.ReadBuildInfo(); ok {
		labels = append(labels, L("path", bi.Main.Path))
		if bi.Main.Version != "" {
			labels = append(labels, L("version", bi.Main.Version))
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				labels = append(labels, L("revision", s.Value))
			case "vcs.modified":
				labels = append(labels, L("modified", s.Value))
			}
		}
	}
	reg.Gauge("rpcv_build_info", labels...).Set(1)
	reg.GaugeFunc("rpcv_uptime_seconds", func() float64 {
		return time.Since(processStart).Seconds()
	}, nl)
}
