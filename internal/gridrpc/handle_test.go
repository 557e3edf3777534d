package gridrpc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"rpcv/internal/grid"
	"rpcv/internal/node"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/server"
)

// Close fails the calls still without a result: a Wait parked before
// Close — on a context that never ends — returns ErrClosed instead of
// hanging, and so does one made after it.
func TestCloseFailsPendingHandles(t *testing.T) {
	g := testGrid(t, 0, nil) // no servers: never completes
	s := dialTest(t, g, Config{User: "frank", Session: 1})
	h, err := s.CallAsync("noone", nil)
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() {
		_, err := h.Wait(context.Background())
		waited <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter park
	s.Close()
	select {
	case err := <-waited:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Wait parked before Close returned %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Wait parked before Close never returned")
	}
	if _, err := h.Wait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Wait after Close returned %v, want ErrClosed", err)
	}
	if h.Probe() {
		t.Fatal("Probe reports a call the session was closed under as complete")
	}
}

// The handle owns its result: Wait answers as often as it is asked,
// Probe after Wait still says yes, and the session keeps no result
// once the application lets the handle go.
func TestHandleOwnsItsResult(t *testing.T) {
	g := testGrid(t, 1, map[string]server.Service{
		"big": func(p []byte) ([]byte, error) { return make([]byte, 1<<20), nil },
	})
	s := dialTest(t, g, Config{User: "grace", Session: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	h, err := s.CallAsync("big", nil)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if out, err := h.Wait(ctx); err != nil || len(out) != 1<<20 {
			t.Fatalf("Wait = %d bytes, %v", len(out), err)
		}
		if !h.Probe() {
			t.Fatal("Probe after Wait says the call is not complete")
		}
	}

	freed := make(chan struct{})
	runtime.SetFinalizer(h, func(*Handle) { close(freed) })
	h = nil
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatal("the handle of a finished call is still reachable after the application dropped it: the session retains results")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// A session relaunched without its store — same (user, session), no
// DiskDir — does not know which seqs the session has used, nor which of
// them the coordinator has collected. Its first call waits for the
// coordinator to say, takes a seq above everything the session ever
// numbered, and runs: it neither gets an earlier call's stored result
// nor vanishes into a collected seq.
func TestRelaunchedSessionWithoutStoreNumbersAboveTheWatermark(t *testing.T) {
	g := testGrid(t, 1, map[string]server.Service{
		"echo": func(p []byte) ([]byte, error) { return p, nil },
	})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	call := func(s *Session, params string) uint64 {
		t.Helper()
		h, err := s.CallAsync("echo", []byte(params))
		if err != nil {
			t.Fatal(err)
		}
		if out, err := h.Wait(ctx); err != nil || string(out) != params {
			t.Fatalf("call %d(%q) = %q, %v", h.Seq(), params, out, err)
		}
		return h.Seq()
	}

	first := dialTest(t, g, Config{User: "heidi", Session: 7})
	for i := range 3 {
		call(first, fmt.Sprint("first-", i))
	}
	for first.Stats().Collected < 3 { // the poll that acknowledges 1..3 has left
		if ctx.Err() != nil {
			t.Fatal("the first run never acknowledged its results")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)  // and has been served: 1..3 are collected
	call(first, "first-unacknowledged") // 4: closed under before its ack, or just after
	first.Close()

	second := dialTest(t, g, Config{User: "heidi", Session: 7})
	if seq := call(second, "second-0"); seq != 5 {
		t.Fatalf("the relaunched session numbered its first call %d, want 5 (the session had used 1..4)", seq)
	}
	if seq := call(second, "second-1"); seq != 6 {
		t.Fatalf("second call of the relaunched session = %d, want 6", seq)
	}
}

// mute is a coordinator that never answers.
type mute struct{}

func (mute) Start(node.Env)                      {}
func (mute) Stop()                               {}
func (mute) Receive(proto.NodeID, proto.Message) {}

// While no coordinator has answered, the calls of a session whose ID
// the caller chose have no number — and CallAsync returns all the same,
// Probe says no, and Close fails them like any call without a result.
func TestCallAsyncDoesNotWaitForTheNumber(t *testing.T) {
	g := grid.New(grid.Options{})
	t.Cleanup(g.Close)
	if _, err := g.Start("co", func() rt.Config { return rt.Config{Handler: mute{}} }); err != nil {
		t.Fatal(err)
	}
	s := dialTest(t, g, Config{User: "ivan", Session: 3})
	returned := make(chan []*Handle, 1)
	go func() {
		var hs []*Handle
		for range 100 {
			h, err := s.CallAsync("echo", nil)
			if err != nil {
				t.Error(err)
			}
			hs = append(hs, h)
		}
		returned <- hs
	}()
	var hs []*Handle
	select {
	case hs = <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("CallAsync waits for a coordinator that does not answer")
	}
	if st := s.Stats(); st.Submitted != 0 || st.Syncs == 0 {
		t.Fatalf("%+v: want no call numbered and the synchronization asked for", st)
	}
	if hs[0].Probe() {
		t.Fatal("Probe reports a call without a number as complete")
	}
	s.Close()
	for _, h := range hs {
		if _, err := h.Wait(context.Background()); !errors.Is(err, ErrClosed) || h.Seq() != 0 {
			t.Fatalf("after Close: Wait = %v, Seq = %d; want ErrClosed and no number", err, h.Seq())
		}
	}
}
