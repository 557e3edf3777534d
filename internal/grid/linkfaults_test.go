package grid

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rpcv/internal/netmodel"
	"rpcv/internal/rt"
)

// sink is a TCP server that accumulates every byte it receives.
type sink struct {
	ln net.Listener
	mu sync.Mutex
	b  []byte
}

func newSink(t *testing.T) *sink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &sink{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						s.mu.Lock()
						s.b = append(s.b, buf[:n]...)
						s.mu.Unlock()
					}
					if err != nil {
						_ = c.Close()
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return s
}

func (s *sink) got() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.b)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLinkFaultsForwardBlockHeal(t *testing.T) {
	target := newSink(t)
	rules := netmodel.NewRules()
	f := NewLinkFaults(rules, t.Logf)
	defer f.Close()
	f.SetTarget("b", target.ln.Addr().String())
	addr, err := f.Addr("a", "b")
	if err != nil {
		t.Fatal(err)
	}

	// Open link: bytes flow through.
	c1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Write([]byte("one")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "forwarded bytes", func() bool { return target.got() == "one" })

	// Block: the live connection is severed...
	rules.BlockLink("a", "b")
	waitFor(t, "severed conn", func() bool {
		_ = c1.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		_, werr := c1.Write([]byte("x"))
		return werr != nil
	})
	_ = c1.Close()

	// ...and a redial handshakes (the peer looks reachable: asymmetric
	// partition, not a dead host) but nothing is forwarded.
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial during block must succeed (black-hole): %v", err)
	}
	if _, err := c2.Write([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if got := target.got(); got != "one" {
		t.Fatalf("bytes leaked through a blocked link: %q", got)
	}

	// Heal: the black-holed conn is dropped (sender must redial) and a
	// fresh connection forwards from its first byte.
	rules.HealLink("a", "b")
	waitFor(t, "black-holed conn closed", func() bool {
		_ = c2.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		_, werr := c2.Write([]byte("x"))
		return werr != nil
	})
	_ = c2.Close()
	c3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c3.Close() }()
	if _, err := c3.Write([]byte("two")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-heal bytes", func() bool { return target.got() == "onetwo" })
}

// One-way semantics at the directory level: blocking a->b must leave
// b->a flowing, because each direction rides its own proxy.
func TestLinkFaultsOneWayAcrossDirectory(t *testing.T) {
	sa, sb := newSink(t), newSink(t)
	rules := netmodel.NewRules()
	f := NewLinkFaults(rules, t.Logf)
	defer f.Close()

	real := rt.Directory{"a": sa.ln.Addr().String(), "b": sb.ln.Addr().String()}
	dirA, err := f.Directory("a", real) // what node a dials
	if err != nil {
		t.Fatal(err)
	}
	dirB, err := f.Directory("b", real) // what node b dials
	if err != nil {
		t.Fatal(err)
	}

	rules.BlockLink("a", "b")

	ca, err := net.Dial("tcp", dirA["b"]) // a -> b: blocked
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ca.Close() }()
	cb, err := net.Dial("tcp", dirB["a"]) // b -> a: open
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cb.Close() }()

	if _, err := ca.Write([]byte("to-b")); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Write([]byte("to-a")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reverse direction", func() bool { return sa.got() == "to-a" })
	if got := sb.got(); got != "" {
		t.Fatalf("blocked direction delivered %q", got)
	}
}

// Retargeting after a "restart": the proxy address stays stable while
// the backing target moves; new connections land on the new target.
func TestLinkFaultsRetarget(t *testing.T) {
	old, fresh := newSink(t), newSink(t)
	f := NewLinkFaults(nil, t.Logf)
	defer f.Close()

	f.SetTarget("b", old.ln.Addr().String())
	addr, err := f.Addr("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Write([]byte("before")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "old target bytes", func() bool { return old.got() == "before" })

	f.SetTarget("b", fresh.ln.Addr().String())
	waitFor(t, "stale conn severed", func() bool {
		_ = c1.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		_, werr := c1.Write([]byte("x"))
		return werr != nil
	})
	_ = c1.Close()

	c2, err := net.Dial("tcp", addr) // same proxy address
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c2.Close() }()
	if _, err := c2.Write([]byte("after")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "new target bytes", func() bool { return fresh.got() == "after" })
	// The probe "x" writes may have raced through before the sever; the
	// post-retarget payload must not have.
	if got := old.got(); strings.Contains(got, "after") {
		t.Fatalf("old target got %q after retarget", got)
	}
}
