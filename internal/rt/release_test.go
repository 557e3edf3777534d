package rt

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"rpcv/internal/node"
	"rpcv/internal/proto"
)

// pooledRecorder stands in for proto's pool: it records the arrays the
// runtime hands it, by their first byte's address.
type pooledRecorder struct {
	mu     sync.Mutex
	pooled map[*byte]bool
}

func recordPooled(t *testing.T) *pooledRecorder {
	rec := &pooledRecorder{pooled: make(map[*byte]bool)}
	t.Cleanup(func() { toPool = proto.ReleasePayload })
	toPool = func(b []byte) {
		rec.mu.Lock()
		rec.pooled[&b[:1][0]] = true
		rec.mu.Unlock()
	}
	return rec
}

func (p *pooledRecorder) has(b []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pooled[&b[0]]
}

// stalledPeer is a listener whose connections are not read until
// read is called, or are closed by cut.
type stalledPeer struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newStalledPeer(t *testing.T) *stalledPeer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stalledPeer{ln: ln}
	t.Cleanup(func() { p.cut() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, c)
			p.mu.Unlock()
		}
	}()
	return p
}

// read drains every connection accepted so far, and keeps draining.
func (p *stalledPeer) read() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		go io.Copy(io.Discard, c)
	}
}

// cut closes the listener and every connection, unread.
func (p *stalledPeer) cut() {
	p.ln.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
}

// A payload released while an envelope carrying it waits in the queue
// to a peer that does not read stays out of the pool until that
// envelope is written — or, in the second case, dropped with the
// broken connection — and goes to the pool then.
func TestReleasedPayloadWaitsForItsEnvelope(t *testing.T) {
	for _, tc := range []struct {
		name   string
		settle func(*stalledPeer)
	}{
		{"written", (*stalledPeer).read},
		{"dropped", (*stalledPeer).cut},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pooled := recordPooled(t)
			peer := newStalledPeer(t)
			a := &echo{}
			ra, err := Start(Config{ID: "a", Handler: a, Logf: quietLogf,
				Directory: Directory{"peer": peer.ln.Addr().String()}})
			if err != nil {
				t.Fatal(err)
			}
			defer ra.Close()

			// More than the loopback socket buffers hold: the sender's
			// write blocks until the peer reads.
			filler := &proto.Submit{Params: make([]byte, 32<<20)}
			ra.Do(func() { a.env.Send("peer", filler) })
			s := ra.senderFor("peer")
			if !waitFor(t, 5*time.Second, func() bool {
				s.mu.Lock()
				defer s.mu.Unlock()
				return s.flushing
			}) {
				t.Fatal("the filler's batch never left the queue")
			}

			params := make([]byte, 64<<10)
			ra.Do(func() {
				a.env.Send("peer", &proto.Submit{Params: params})
				a.env.(node.Releaser).Release(params)
			})
			time.Sleep(50 * time.Millisecond)
			if pooled.has(params) {
				t.Fatal("the payload went to the pool while an envelope carrying it waited to be written")
			}
			tc.settle(peer)
			if !waitFor(t, 10*time.Second, func() bool { return pooled.has(params) }) {
				t.Fatal("the payload never went to the pool once its envelope was settled")
			}
		})
	}
}

// A release with nothing queued anywhere goes to the pool at once, and
// a payload under proto.BlobMin never does.
func TestReleaseWithNothingQueuedPoolsAtOnce(t *testing.T) {
	pooled := recordPooled(t)
	a := &echo{}
	ra, err := Start(Config{ID: "a", Handler: a, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	large, small := make([]byte, 64<<10), make([]byte, proto.BlobMin-1)
	ra.Do(func() {
		a.env.(node.Releaser).Release(large)
		a.env.(node.Releaser).Release(small)
	})
	if !pooled.has(large) || pooled.has(small) {
		t.Fatalf("64 KiB pooled %v (want true), %d B pooled %v (want false)", pooled.has(large), len(small), pooled.has(small))
	}
}
