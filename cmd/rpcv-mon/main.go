// Command rpcv-mon is the cluster monitor and flight recorder: it
// scrapes every node's -admin endpoint, keeps rolling metric history,
// grades the fleet against a declarative health/SLO model, and
// captures post-mortem bundles when things break.
//
// Usage:
//
//	rpcv-mon -nodes coord-a=127.0.0.1:8080,srv-1=127.0.0.1:8081 \
//	    -listen 127.0.0.1:9090 -interval 2s -bundles rpcv-bundles \
//	    -slo-dispatch-p99 50ms -slo-queue-depth 1000
//
// -nodes lists id=admin-addr pairs — each node's observability HTTP
// address (what the daemon passed as -admin), not its RPC port.
//
// The monitor serves its own HTTP plane on -listen:
//
//	/clusterz   fleet verdict (JSON; ?format=text for the table)
//	/historyz   the retained metric rings as JSON
//	/healthz    200 while the fleet is ok/warn, 503 otherwise
//	/capture    POST: write a flight bundle now
//
// -top redraws the cluster table in the terminal after every scrape, a
// top(1)-style live view.
//
// Flight bundles land in -bundles/<timestamp>-<reason>/: the verdict,
// every node's metric history and last raw exposition, all span rings
// assembled into per-call timelines (plus a Chrome trace), /statusz
// snapshots and goroutine/heap profiles. Bundles trigger automatically
// on a node death or a fresh Critical SLO breach (rate-limited by
// -bundle-cooldown), on SIGQUIT, and on POST /capture.
//
// The -slo-* flags opt into objectives; each zero value disables its
// rule. Liveness (scrape reachability, /healthz) is always graded.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rpcv/internal/obs/fleet"
)

func main() {
	nodes := flag.String("nodes", "", "comma-separated id=admin-addr list of nodes to scrape (required)")
	listen := flag.String("listen", "127.0.0.1:9090", "monitor HTTP address serving /clusterz /historyz /healthz /capture")
	interval := flag.Duration("interval", 2*time.Second, "scrape period")
	timeout := flag.Duration("timeout", 0, "per-node scrape timeout (0: interval/2)")
	history := flag.Int("history", 512, "points retained per metric ring")
	downAfter := flag.Int("down-after", 2, "consecutive scrape failures before a node is graded down")
	window := flag.Duration("window", 0, "lookback window for rates and SLO burn (0: 15*interval)")
	bundles := flag.String("bundles", "rpcv-bundles", "flight-bundle directory (empty: flight recorder off)")
	cooldown := flag.Duration("bundle-cooldown", 30*time.Second, "minimum spacing between automatic bundle captures")
	top := flag.Bool("top", false, "redraw the cluster table in the terminal after every scrape")
	sloDispatch := flag.Duration("slo-dispatch-p99", 0, "per-shard dispatch p99 target (0: rule off)")
	sloWAL := flag.Duration("slo-wal-p99", 0, "per-node durable-write p99 target (0: rule off)")
	sloQueue := flag.Float64("slo-queue-depth", 0, "per-shard max summed queue depth (0: rule off)")
	sloRequeue := flag.Float64("slo-requeue-rate", 0, "per-shard max requeues/s (0: rule off)")
	sloRedial := flag.Float64("slo-redial-rate", 0, "per-node max transport redials/s; a redial is one per batch sent to an unreachable peer, about one per heartbeat or poll period per down peer (0: rule off)")
	sloShed := flag.Float64("slo-shed-rate", 0, "per-node max transport sheds/s (0: rule off)")
	flag.Parse()

	sources, err := fleet.ParseTargets(*nodes)
	if err != nil {
		log.Fatalf("rpcv-mon: -nodes: %v (at least one id=admin-addr required)", err)
	}

	mon := fleet.New(fleet.Config{
		Sources:        sources,
		Interval:       *interval,
		Timeout:        *timeout,
		History:        *history,
		DownAfter:      *downAfter,
		Window:         *window,
		BundleDir:      *bundles,
		BundleCooldown: *cooldown,
		SLO: fleet.SLO{
			DispatchP99:    *sloDispatch,
			WALCommitP99:   *sloWAL,
			MaxQueueDepth:  *sloQueue,
			MaxRequeueRate: *sloRequeue,
			MaxRedialRate:  *sloRedial,
			MaxShedRate:    *sloShed,
		},
		Logf: log.Printf,
		OnVerdict: func(v fleet.FleetVerdict) {
			if *top {
				fmt.Print(fleet.TopView(v))
			}
		},
	})

	srv := &http.Server{Addr: *listen, Handler: mon.Handler()}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("rpcv-mon: listen %s: %v", *listen, err)
		}
	}()
	log.Printf("rpcv-mon: watching %d node(s) every %v; /clusterz on http://%s", len(sources), *interval, *listen)
	mon.Start()

	quit := make(chan os.Signal, 1)
	stop := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-quit:
			// SIGQUIT: capture a bundle on demand and keep running — the
			// operator's "save everything now" button.
			dir, err := mon.CaptureBundle("sigquit")
			if err != nil {
				log.Printf("rpcv-mon: capture: %v", err)
				continue
			}
			log.Printf("rpcv-mon: captured %s", dir)
		case <-stop:
			mon.Close()
			_ = srv.Close()
			fmt.Print(fleet.Text(mon.Verdict()))
			return
		}
	}
}
