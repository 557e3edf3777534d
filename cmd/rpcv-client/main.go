// Command rpcv-client submits RPC calls to an RPC-V grid through the
// GridRPC-style API and waits for the results.
//
// Usage:
//
//	rpcv-client -coordinators coord-a=host1:7000 \
//	    -service upper -data "hello grid" -n 4
//
// -disk names the directory of the message log, a group-commit
// write-ahead log that batches concurrent submissions' log entries into
// shared fsyncs. Without it the log is volatile.
//
// -admin mounts the observability HTTP server (internal/obs) on the
// given address: /metrics, /statusz, /healthz, /tracez and
// /debug/pprof/. Empty disables it. On exit the client prints a
// one-line metrics summary.
//
// The client tags every submission with a (user, session, rpc) unique
// ID and logs it per the chosen strategy; re-running with the same
// -user and -session resumes a previous (possibly interrupted) run —
// client disconnection is a normal event. What it can still retrieve
// are the results that run never acknowledged: a result is
// acknowledged by the poll after the one that fetched it, and the
// coordinator then lets it go (proto.Poll). With -disk the sequence
// counter and the acknowledgements resume where the run stopped;
// without it the coordinator's reply to the session's synchronization
// restores both. Either way a run with -session numbers its first call
// only once a coordinator has answered that synchronization.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"rpcv/internal/gridrpc"
	"rpcv/internal/msglog"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/shared"
)

func main() {
	user := flag.String("user", "anonymous", "user unique ID")
	session := flag.Uint64("session", 0, "session unique ID (0: new session)")
	coords := flag.String("coordinators", "", "comma-separated id=addr coordinator list (required)")
	listen := flag.String("listen", "127.0.0.1:0", "reply listen address")
	disk := flag.String("disk", "", "message log directory (empty: volatile)")
	service := flag.String("service", "echo", "service name to call")
	data := flag.String("data", "", "call parameters (string payload)")
	n := flag.Int("n", 1, "number of concurrent non-blocking calls")
	logging := flag.String("logging", "non-blocking-pessimistic",
		"message logging strategy: optimistic | blocking | non-blocking")
	wait := flag.Duration("wait", 5*time.Minute, "overall deadline")
	admin := flag.String("admin", "", "observability HTTP address serving /metrics /statusz /healthz /tracez /debug/pprof/ (empty: disabled)")
	flag.Parse()

	dirMap, _, err := shared.ParseDirectory(*coords)
	if err != nil || len(dirMap) == 0 {
		log.Fatalf("rpcv-client: -coordinators: %v (at least one id=addr required)", err)
	}
	strat, err := msglog.ParseStrategy(*logging)
	if err != nil {
		log.Fatalf("rpcv-client: %v", err)
	}

	coordAddrs := make(map[string]string, len(dirMap))
	for id, addr := range dirMap {
		coordAddrs[string(id)] = addr
	}

	var ob *obs.Observer
	if *admin != "" {
		ob = obs.New(proto.NodeID("client-" + *user))
	}

	sess, err := gridrpc.Dial(gridrpc.Config{
		User:         *user,
		Session:      *session,
		Coordinators: coordAddrs,
		ListenAddr:   *listen,
		DiskDir:      *disk,
		Logging:      strat,
		Obs:          ob,
	})
	if err != nil {
		log.Fatalf("rpcv-client: %v", err)
	}
	defer sess.Close()
	fmt.Printf("session up (reply address %s)\n", sess.Addr())

	if *admin != "" {
		adm, err := obs.ServeAdmin(*admin, ob)
		if err != nil {
			log.Fatalf("rpcv-client: %v", err)
		}
		defer adm.Close()
		adm.Health(func() error { return sess.Ping(500 * time.Millisecond) })
		adm.Status("client", func() any { return sess.Stats() })
		fmt.Printf("admin on http://%s\n", adm.Addr())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *wait)
	defer cancel()

	start := time.Now()
	handles := make([]*gridrpc.Handle, 0, *n)
	for i := 0; i < *n; i++ {
		h, err := sess.CallAsync(*service, []byte(*data))
		if err != nil {
			log.Fatalf("rpcv-client: submit: %v", err)
		}
		handles = append(handles, h)
	}
	fmt.Printf("submitted %d call(s) to service %q\n", len(handles), *service)

	for _, h := range handles {
		out, err := h.Wait(ctx)
		if err != nil {
			log.Printf("call %d: %v", h.Seq(), err)
			continue
		}
		fmt.Printf("call %d -> %q\n", h.Seq(), out)
	}
	st := sess.Stats()
	fmt.Printf("done in %v (results %d/%d, failovers %d, syncs %d)\n",
		time.Since(start).Round(time.Millisecond), st.Results, st.Submitted, st.Failovers, st.Syncs)
	if ob != nil {
		fmt.Printf("metrics: %s\n", ob.Registry().Summary())
	}
}
