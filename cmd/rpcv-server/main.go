// Command rpcv-server runs one RPC-V worker as a real TCP daemon.
//
// Usage:
//
//	rpcv-server -id worker-7 -listen :7100 \
//	    -coordinators coord-a=host1:7000,coord-b=host2:7000 \
//	    -disk /var/lib/rpcv/worker-7 -parallel 2
//
// -disk names the directory of the worker's durable result log, a
// group-commit write-ahead log (internal/store). Without it the log is
// volatile.
//
// -parallel is the number of service bodies the worker runs at once,
// each off its event loop: while they execute, the worker keeps
// beating, advertises only the slots really free and reports what it
// is running, however long a service takes.
//
// -admin mounts the observability HTTP server (internal/obs) on the
// given address: /metrics, /statusz, /healthz, /tracez and
// /debug/pprof/. Empty disables it. On shutdown the daemon prints a
// one-line metrics summary.
//
// The worker pulls tasks from its preferred coordinator with 5-second
// heartbeats, executes the built-in demo services (echo, upper,
// reverse, sum, sleep) or synthetic timed tasks, durably logs result
// archives, and fails over between coordinators on suspicion. Kill it
// abruptly at any time: on restart it re-synchronizes from its local
// log and re-offers unacknowledged results.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/server"
	"rpcv/internal/shared"
)

func main() {
	id := flag.String("id", "server-000", "stable worker ID")
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address")
	coords := flag.String("coordinators", "", "comma-separated id=addr coordinator list (required)")
	disk := flag.String("disk", "", "stable storage directory (empty: volatile)")
	parallel := flag.Int("parallel", 1, "service bodies executed at once (each off the event loop: a busy worker keeps beating); further assignments wait in a local backlog")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "heartbeat period")
	timeout := flag.Duration("timeout", 30*time.Second, "coordinator suspicion timeout")
	queueDepth := flag.Int("send-queue", 0, "per-peer send queue depth (0: default 128)")
	idleTimeout := flag.Duration("idle-timeout", 0, "connection idle timeout (0: default 30s)")
	maxInbound := flag.Int("max-inbound", 0, "max concurrent inbound connections before shedding (0: default 256)")
	admin := flag.String("admin", "", "observability HTTP address serving /metrics /statusz /healthz /tracez /debug/pprof/ (empty: disabled)")
	flag.Parse()

	dir, coordIDs, err := shared.ParseDirectory(*coords)
	if err != nil || len(coordIDs) == 0 {
		log.Fatalf("rpcv-server: -coordinators: %v (at least one id=addr required)", err)
	}

	var ob *obs.Observer
	if *admin != "" {
		ob = obs.New(proto.NodeID(*id))
	}

	sv := server.New(server.Config{
		Coordinators:     coordIDs,
		HeartbeatPeriod:  *heartbeat,
		SuspicionTimeout: *timeout,
		Parallelism:      *parallel,
		Services:         shared.BuiltinServices(),
		OnTaskDone: func(task proto.TaskID, at time.Time) {
			log.Printf("executed %s", task)
		},
		Obs: ob,
	})

	rtm, err := rt.Start(rt.Config{
		ID:              proto.NodeID(*id),
		ListenAddr:      *listen,
		Directory:       dir,
		DiskDir:         *disk,
		Handler:         sv,
		QueueDepth:      *queueDepth,
		IdleTimeout:     *idleTimeout,
		MaxInboundConns: *maxInbound,
		Obs:             ob,
	})
	if err != nil {
		log.Fatalf("rpcv-server: %v", err)
	}
	defer rtm.Close()
	fmt.Printf("rpcv-server %s listening on %s, %d coordinator(s), parallelism %d\n",
		*id, rtm.Addr(), len(coordIDs), *parallel)

	if *admin != "" {
		adm, err := obs.ServeAdmin(*admin, ob)
		if err != nil {
			log.Fatalf("rpcv-server: %v", err)
		}
		defer adm.Close()
		adm.Health(func() error { return rtm.Ping(500 * time.Millisecond) })
		adm.Status("server", func() any {
			var st server.Stats
			rtm.Do(func() { st = sv.StatsNow() })
			return st
		})
		adm.Status("transport", func() any { return rtm.TransportStats() })
		fmt.Printf("rpcv-server %s admin on http://%s\n", *id, adm.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("rpcv-server %s: shutting down", *id)
	if ob != nil {
		log.Printf("rpcv-server %s: metrics: %s", *id, ob.Registry().Summary())
	}
}
