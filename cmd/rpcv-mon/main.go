// Command rpcv-mon is the flight recorder: it polls every node's -admin
// endpoint and captures a post-mortem bundle when a node goes down.
//
// Usage:
//
//	rpcv-mon -nodes coord-a=127.0.0.1:8080,srv-1=127.0.0.1:8081 \
//	    -interval 2s -bundles rpcv-bundles
//
// -nodes lists id=admin-addr pairs — each node's observability HTTP
// address (what the daemon passed as -admin), not its RPC port.
//
// Every -interval the recorder checks each node's /healthz and keeps
// its /metrics text. A node that fails /healthz, or does not answer,
// two rounds in a row is down, and the transition captures a bundle
// into -bundles/<timestamp>-node-<id>-down/ (at most one per 30s): all
// span rings assembled into per-call timelines (plus a Chrome trace),
// each node's metrics text (a dead node's from its last healthy
// round), /statusz snapshots and goroutine/heap profiles. SIGQUIT
// captures one on demand and keeps running.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rpcv/internal/obs/fleet"
)

func main() {
	nodes := flag.String("nodes", "", "comma-separated id=admin-addr list of nodes to watch (required)")
	interval := flag.Duration("interval", 2*time.Second, "polling period; each request times out after half of it")
	bundles := flag.String("bundles", "rpcv-bundles", "flight-bundle directory")
	flag.Parse()

	sources, err := fleet.ParseTargets(*nodes)
	if err != nil {
		log.Fatalf("rpcv-mon: -nodes: %v (at least one id=admin-addr required)", err)
	}
	if *bundles == "" {
		log.Fatal("rpcv-mon: -bundles must name a directory")
	}
	mon := fleet.New(fleet.Config{
		Sources:   sources,
		Interval:  *interval,
		BundleDir: *bundles,
		Logf:      log.Printf,
	})
	log.Printf("rpcv-mon: watching %d node(s) every %v; bundles in %s", len(sources), *interval, *bundles)
	mon.Start()

	quit := make(chan os.Signal, 1)
	stop := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-quit:
			dir, err := mon.CaptureBundle("sigquit")
			if err != nil {
				log.Printf("rpcv-mon: capture: %v", err)
				continue
			}
			log.Printf("rpcv-mon: captured %s", dir)
		case <-stop:
			mon.Close()
			return
		}
	}
}
