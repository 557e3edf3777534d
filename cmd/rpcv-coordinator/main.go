// Command rpcv-coordinator runs one RPC-V middle-tier coordinator as a
// real TCP daemon.
//
// Usage:
//
//	rpcv-coordinator -id coord-a -listen :7000 \
//	    -peers coord-b=host2:7000,coord-c=host3:7000 \
//	    -disk /var/lib/rpcv/coord-a -replication 60s
//
// -disk names the directory of the coordinator's durable store, a
// group-commit write-ahead log with snapshots and compaction
// (internal/store) that amortizes the fsync per job record across
// concurrent submissions. Without it the job table is volatile.
//
// -admin mounts the observability HTTP server (internal/obs) on the
// given address: /metrics (Prometheus text), /statusz (JSON counters,
// suspected nodes), /healthz, /tracez (task-lifecycle span ring), and
// /debug/pprof/. Empty disables it. On shutdown the daemon prints a
// one-line metrics summary.
//
// Peers are fellow coordinators forming the passive-replication ring.
// Clients and servers reach this coordinator at the listen address; the
// daemon learns their reply addresses from the directory flags of those
// components (static directories; a production deployment would learn
// them from connections or a registry).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rpcv/internal/coordinator"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/sched"
	"rpcv/internal/shared"
)

func main() {
	id := flag.String("id", "coord-00", "stable coordinator ID")
	listen := flag.String("listen", "127.0.0.1:7000", "TCP listen address")
	peers := flag.String("peers", "", "comma-separated id=addr fellow coordinators")
	clients := flag.String("nodes", "", "comma-separated id=addr known clients/servers (static directory)")
	disk := flag.String("disk", "", "stable storage directory (empty: volatile)")
	replication := flag.Duration("replication", 60*time.Second, "passive replication period")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "heartbeat period")
	timeout := flag.Duration("timeout", 30*time.Second, "fault suspicion timeout")
	policy := flag.String("policy", "fcfs", "scheduling policy: "+strings.Join(sched.Policies(), ", "))
	queueDepth := flag.Int("send-queue", 0, "per-peer send queue depth (0: default 128)")
	idleTimeout := flag.Duration("idle-timeout", 0, "connection idle timeout (0: default 30s)")
	maxInbound := flag.Int("max-inbound", 0, "max concurrent inbound connections before shedding (0: default 256)")
	admin := flag.String("admin", "", "observability HTTP address serving /metrics /statusz /healthz /tracez /debug/pprof/ (empty: disabled)")
	flag.Parse()

	if _, err := sched.New(sched.Config{Policy: *policy}); err != nil {
		log.Fatalf("rpcv-coordinator: -policy: %v", err)
	}

	dir, coordIDs, err := shared.ParseDirectory(*peers)
	if err != nil {
		log.Fatalf("rpcv-coordinator: -peers: %v", err)
	}
	nodeDir, _, err := shared.ParseDirectory(*clients)
	if err != nil {
		log.Fatalf("rpcv-coordinator: -nodes: %v", err)
	}
	for k, v := range nodeDir {
		dir[k] = v
	}
	coordIDs = append(coordIDs, proto.NodeID(*id))

	var ob *obs.Observer
	if *admin != "" {
		ob = obs.New(proto.NodeID(*id))
	}

	co := coordinator.New(coordinator.Config{
		Coordinators:      coordIDs,
		ReplicationPeriod: *replication,
		HeartbeatPeriod:   *heartbeat,
		HeartbeatTimeout:  *timeout,
		Policy:            *policy,
		OnJobFinished: func(call proto.CallID, at time.Time) {
			log.Printf("finished %s at %s", call, at.Format(time.RFC3339))
		},
		Obs: ob,
	})

	rtm, err := rt.Start(rt.Config{
		ID:              proto.NodeID(*id),
		ListenAddr:      *listen,
		Directory:       dir,
		DiskDir:         *disk,
		Handler:         co,
		QueueDepth:      *queueDepth,
		IdleTimeout:     *idleTimeout,
		MaxInboundConns: *maxInbound,
		Obs:             ob,
	})
	if err != nil {
		log.Fatalf("rpcv-coordinator: %v", err)
	}
	defer rtm.Close()
	fmt.Printf("rpcv-coordinator %s listening on %s (ring of %d)\n", *id, rtm.Addr(), len(coordIDs))

	if *admin != "" {
		adm, err := obs.ServeAdmin(*admin, ob)
		if err != nil {
			log.Fatalf("rpcv-coordinator: %v", err)
		}
		defer adm.Close()
		// /healthz answers 503 when the event loop stops taking work:
		// liveness is proven per probe, not assumed from the socket.
		adm.Health(func() error { return rtm.Ping(500 * time.Millisecond) })
		// Status sections read event-loop state; marshal each snapshot
		// onto the loop via rtm.Do so the HTTP goroutine never touches
		// handler fields directly.
		adm.Status("coordinator", func() any {
			var st coordinator.Stats
			rtm.Do(func() { st = co.StatsNow() })
			return st
		})
		adm.Status("loops", func() any { return rtm.LoopStats() })
		adm.Status("suspected", func() any {
			var servers, coords []proto.NodeID
			rtm.Do(func() {
				servers = co.SuspectedServers()
				coords = co.SuspectedCoordinators()
			})
			return map[string]any{"servers": servers, "coordinators": coords}
		})
		adm.Status("transport", func() any { return rtm.TransportStats() })
		fmt.Printf("rpcv-coordinator %s admin on http://%s\n", *id, adm.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("rpcv-coordinator %s: shutting down", *id)
	if ob != nil {
		log.Printf("rpcv-coordinator %s: metrics: %s", *id, ob.Registry().Summary())
	}
}
