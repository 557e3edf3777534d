// Quickstart: a complete RPC-V grid in one process, on real TCP
// sockets — one coordinator, three volatile workers, and a GridRPC
// client session. One worker is killed abruptly mid-run to show the
// fault tolerance working; every call still completes.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"rpcv/internal/coordinator"
	"rpcv/internal/grid"
	"rpcv/internal/gridrpc"
	"rpcv/internal/msglog"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/server"
	"rpcv/internal/shared"
)

func main() {
	// Millisecond timescales so the demo runs in seconds; a real
	// deployment uses the paper's 5 s heartbeat / 30 s suspicion.
	const (
		beat    = 50 * time.Millisecond
		suspect = 500 * time.Millisecond
	)
	tmp, err := os.MkdirTemp("", "rpcv-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	g := grid.New(grid.Options{})
	defer g.Close()

	// --- Middle tier: the coordinator ---------------------------------
	co := coordinator.New(coordinator.Config{
		Coordinators:     []proto.NodeID{"coord"},
		HeartbeatPeriod:  beat,
		HeartbeatTimeout: suspect,
	})
	rco, err := g.Start("coord", func() rt.Config {
		return rt.Config{Handler: co, DiskDir: filepath.Join(tmp, "coord")}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coordinator up at %s\n", rco.Addr())

	// --- Third tier: three workers ------------------------------------
	services := shared.BuiltinServices()
	// A file service: count lines per input file (the paper's
	// file-transport mode: directories travel as compressed archives).
	services["linecount"] = gridrpc.FileService(func(in gridrpc.Files) (gridrpc.Files, error) {
		out := make(gridrpc.Files)
		for name, payload := range in {
			n := 0
			for _, b := range payload {
				if b == '\n' {
					n++
				}
			}
			out[name+".lines"] = []byte(fmt.Sprintf("%d", n))
		}
		return out, nil
	})
	for i := 0; i < 3; i++ {
		sv := server.New(server.Config{
			Coordinators:     []proto.NodeID{"coord"},
			HeartbeatPeriod:  beat,
			SuspicionTimeout: suspect,
			Services:         services,
		})
		id := proto.NodeID(fmt.Sprintf("worker-%d", i))
		if _, err := g.Start(id, func() rt.Config {
			return rt.Config{Handler: sv, DiskDir: filepath.Join(tmp, string(id))}
		}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("3 workers pulling tasks")

	// --- First tier: a GridRPC session --------------------------------
	sess, err := gridrpc.Dial(gridrpc.Config{
		User:             "demo",
		Session:          1,
		Coordinators:     map[string]string{"coord": rco.Addr()},
		DiskDir:          filepath.Join(tmp, "client"),
		Logging:          msglog.NonBlockingPessimistic,
		PollPeriod:       beat,
		SuspicionTimeout: suspect,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	// Loopback has no address learning: tell the coordinator where the
	// client listens.
	if err := g.Attach(sess.ID(), sess.Addr()); err != nil {
		log.Fatal(err)
	}

	// Blocking call.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := sess.Call(ctx, "upper", []byte("remote procedure call for volatile nodes"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("upper -> %q\n", out)

	// A burst of non-blocking calls, with a worker dying mid-flight.
	var handles []*gridrpc.Handle
	for i := 0; i < 12; i++ {
		h, err := sess.CallAsync("sleep", []byte("100ms"))
		if err != nil {
			log.Fatal(err)
		}
		handles = append(handles, h)
	}
	fmt.Println("submitted 12 sleep(100ms) calls; killing worker-0 abruptly...")
	g.Kill("worker-0") // crash-stop: no goodbye message

	if err := sess.WaitAll(ctx, handles); err != nil {
		log.Fatal(err)
	}

	// File-transport mode: ship a directory-as-archive, get files back.
	files, err := sess.CallFiles(ctx, "linecount", gridrpc.Files{
		"report.txt": []byte("line one\nline two\nline three\n"),
		"notes.txt":  []byte("a single line\n"),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("linecount -> report.txt:%s notes.txt:%s\n",
		files["report.txt.lines"], files["notes.txt.lines"])

	st := sess.Stats()
	fmt.Printf("all %d calls completed despite the crash (failovers=%d)\n",
		st.Results, st.Failovers)
}
