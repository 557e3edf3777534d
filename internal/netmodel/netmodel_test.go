package netmodel

import (
	"testing"
	"time"

	"rpcv/internal/proto"
)

var t0 = time.Unix(1_000_000_000, 0).UTC()

func TestTransferChargesBandwidthAndLatency(t *testing.T) {
	n := New(LinkClass{
		UpBandwidth:   1e6, // 1 MB/s
		DownBandwidth: 1e6,
		Latency:       5 * time.Millisecond,
	}, 1)
	at, ok := n.Transfer("a", "b", 1_000_000, t0)
	if !ok {
		t.Fatal("transfer dropped")
	}
	// 1 s uplink + 10 ms propagation (both endpoints) + 1 s downlink.
	want := t0.Add(2*time.Second + 10*time.Millisecond)
	if !at.Equal(want) {
		t.Fatalf("delivery at %v, want %v", at.Sub(t0), want.Sub(t0))
	}
}

func TestUplinkSerialization(t *testing.T) {
	n := New(LinkClass{UpBandwidth: 1e6, DownBandwidth: 1e9, Latency: 0}, 1)
	// Two messages sent simultaneously from the same node share the
	// uplink: the second finishes ~1 s after the first.
	at1, _ := n.Transfer("a", "b", 1_000_000, t0)
	at2, _ := n.Transfer("a", "c", 1_000_000, t0)
	if !at2.After(at1) {
		t.Fatalf("second transfer (%v) not delayed behind first (%v)", at2.Sub(t0), at1.Sub(t0))
	}
	if gap := at2.Sub(at1); gap < 900*time.Millisecond {
		t.Fatalf("uplink gap = %v, want ~1s", gap)
	}
}

func TestDownlinkSerialization(t *testing.T) {
	n := New(LinkClass{UpBandwidth: 1e9, DownBandwidth: 1e6, Latency: 0}, 1)
	at1, _ := n.Transfer("a", "c", 1_000_000, t0)
	at2, _ := n.Transfer("b", "c", 1_000_000, t0)
	if gap := at2.Sub(at1); gap < 900*time.Millisecond {
		t.Fatalf("downlink gap = %v, want ~1s", gap)
	}
}

func TestLoopbackFree(t *testing.T) {
	n := Confined(1)
	at, ok := n.Transfer("a", "a", 1<<30, t0)
	if !ok || !at.Equal(t0) {
		t.Fatalf("loopback = %v,%v; want instant", at.Sub(t0), ok)
	}
}

func TestBlockAndUnblock(t *testing.T) {
	n := Confined(1)
	n.BlockLink("a", "b")
	if _, ok := n.Transfer("a", "b", 10, t0); ok {
		t.Fatal("blocked link delivered")
	}
	// One-way: the reverse direction still works.
	if _, ok := n.Transfer("b", "a", 10, t0); !ok {
		t.Fatal("reverse of one-way block dropped")
	}
	n.HealLink("a", "b")
	if _, ok := n.Transfer("a", "b", 10, t0); !ok {
		t.Fatal("unblocked link still dropping")
	}
}

func TestBlockBoth(t *testing.T) {
	n := Confined(1)
	n.BlockBoth("a", "b")
	if _, ok := n.Transfer("a", "b", 10, t0); ok {
		t.Fatal("a->b delivered")
	}
	if _, ok := n.Transfer("b", "a", 10, t0); ok {
		t.Fatal("b->a delivered")
	}
	n.HealBoth("a", "b")
	if _, ok := n.Transfer("a", "b", 10, t0); !ok {
		t.Fatal("a->b still dropped after unblock")
	}
}

func TestPartitionGroups(t *testing.T) {
	n := Confined(1)
	n.Partition(map[proto.NodeID]int{"a": 0, "b": 1})
	if _, ok := n.Transfer("a", "b", 10, t0); ok {
		t.Fatal("cross-partition message delivered")
	}
	if _, ok := n.Transfer("a", "c", 10, t0); !ok {
		t.Fatal("same-partition (default group) message dropped")
	}
	n.Partition(nil)
	if _, ok := n.Transfer("a", "b", 10, t0); !ok {
		t.Fatal("healed partition still dropping")
	}
}

func TestLoss(t *testing.T) {
	n := New(LinkClass{UpBandwidth: 1e9, DownBandwidth: 1e9, Loss: 0.25}, 7)
	dropped := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if _, ok := n.Transfer("a", "b", 10, t0); !ok {
			dropped++
		}
	}
	// Loss applies per endpoint pair sum (0.5 here); expect ~1000±wide.
	if dropped < trials/4 || dropped > (3*trials)/4 {
		t.Fatalf("dropped %d/%d, far from configured loss", dropped, trials)
	}
}

func TestPerNodeClassOverride(t *testing.T) {
	n := Internet(1)
	n.SetClass("coord", CoordinatorClass())
	if got := n.Class("coord").UpBandwidth; got != CoordinatorClass().UpBandwidth {
		t.Fatalf("class override not applied: %v", got)
	}
	if got := n.Class("worker"); got != n.defaultClass {
		t.Fatalf("default class not returned for unknown node")
	}
}

func TestConfinedFasterThanInternet(t *testing.T) {
	conf := Confined(1)
	inet := Internet(1)
	// Compare a 1 MB transfer on both (loss disabled by retry loop).
	var confAt, inetAt time.Time
	for {
		at, ok := conf.Transfer("a", "b", 1_000_000, t0)
		if ok {
			confAt = at
			break
		}
	}
	for {
		at, ok := inet.Transfer("a", "b", 1_000_000, t0)
		if ok {
			inetAt = at
			break
		}
	}
	if !confAt.Before(inetAt) {
		t.Fatalf("confined (%v) not faster than internet (%v)",
			confAt.Sub(t0), inetAt.Sub(t0))
	}
}

func TestJitterVariesDelivery(t *testing.T) {
	n := New(LinkClass{
		UpBandwidth:   1e9,
		DownBandwidth: 1e9,
		Latency:       time.Millisecond,
		Jitter:        10 * time.Millisecond,
	}, 99)
	seen := make(map[time.Duration]bool)
	for i := 0; i < 50; i++ {
		at, ok := n.Transfer("a", proto.NodeID(rune('b'+i)), 10, t0)
		if !ok {
			continue
		}
		seen[at.Sub(t0)] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct delays", len(seen))
	}
}
