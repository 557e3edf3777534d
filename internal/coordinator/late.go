package coordinator

import (
	"container/list"
	"time"

	"rpcv/internal/proto"
)

// The two tables behind late replies (see the package comment): what a
// pull's answer left open, so that the coordinator can answer again when
// there is something to say. The late reply is the ordinary reply — a
// HeartbeatAck with tasks, a Results with one result. A third, smaller
// one saves a reply that would say nothing (quietPull).
//
// The tables are soft state. They are never persisted or replicated,
// they are gone with the incarnation, the peer's next pull replaces its
// entry, and an entry older than HeartbeatTimeout — the coordinator's
// one notion of silence — is dead. Nothing here arms a timer: the
// peers' own timers keep beating, and a late reply the network loses
// costs what a lost reply always cost — one period.

// offer is one server's unused capacity, as of its last work pull.
type offer struct {
	server proto.NodeID
	slots  int
	at     time.Time // when the pull arrived: an offer ages like silence
}

// offerBook holds the standing offers, longest idle first: a server
// goes to the back when it pulls and when it is handed work, so idle
// servers are served in turn and the order never depends on a map.
//
//rpcv:loop-owned
type offerBook struct {
	order *list.List // of *offer
	by    map[proto.NodeID]*list.Element
	slots int // sum over the book, for the idle-slots gauge
}

func newOfferBook() offerBook {
	return offerBook{order: list.New(), by: make(map[proto.NodeID]*list.Element)}
}

// put records that server has slots to spare as of now, replacing what
// it offered before; no slots, no offer.
func (b *offerBook) put(server proto.NodeID, slots int, now time.Time) {
	e, ok := b.by[server]
	switch {
	case slots <= 0:
		b.drop(server)
	case ok:
		o := e.Value.(*offer)
		b.slots += slots - o.slots
		o.slots, o.at = slots, now
		b.order.MoveToBack(e)
	default:
		b.by[server] = b.order.PushBack(&offer{server: server, slots: slots, at: now})
		b.slots += slots
	}
}

// drop removes server's offer, reporting whether it had one.
func (b *offerBook) drop(server proto.NodeID) bool {
	e, ok := b.by[server]
	if !ok {
		return false
	}
	b.slots -= b.order.Remove(e).(*offer).slots
	delete(b.by, server)
	return true
}

// spend takes n slots from the front offer and sends it to the back.
func (b *offerBook) spend(n int) {
	e := b.order.Front()
	o := e.Value.(*offer)
	o.slots -= n
	b.slots -= n
	if o.slots <= 0 {
		b.drop(o.server)
		return
	}
	b.order.MoveToBack(e)
}

// subscription is where a session's results go between its polls.
type subscription struct {
	to proto.NodeID // the reply address of the session's last Poll
	at time.Time
}

// standingOffer replaces server's offer with what its pull left idle.
func (c *Coordinator) standingOffer(server proto.NodeID, idle int) {
	if c.cfg.PullOnly {
		return
	}
	c.offers.put(server, idle, c.env.Now())
	c.noteIdleSlots()
}

func (c *Coordinator) noteIdleSlots() { c.cm.idleSlots.SetInt(c.offers.slots) }

// subscribe makes the Poll just answered the session's subscription.
func (c *Coordinator) subscribe(from proto.NodeID, m *proto.Poll) {
	if c.cfg.PullOnly {
		return
	}
	c.subs[sessionKey{m.User, m.Session}] = subscription{to: from, at: c.env.Now()}
}

// quietPull reports whether a server's pull that was assigned nothing
// goes unanswered. A server asks for work again right behind each
// result (server.pullMoreWork), and under late replies that pull gets
// no empty HeartbeatAck when a TaskResultAck has gone to the server
// since its last HeartbeatAck: the empty ack would say nothing the
// server is missing. The TaskResultAck already told it the coordinator
// is alive, the pull's offer stands either way — work queued later is
// pushed — and the coordinator list rides the ack to its next periodic
// beat and every push. One TaskResultAck stands in for one ack: the
// pull after the quiet one is answered, or an idle server would hear
// nothing until it suspected the coordinator. Under PullOnly every
// pull is answered, as the paper's servers expect (resultAcked stays
// empty).
func (c *Coordinator) quietPull(server proto.NodeID, assigned int) bool {
	if assigned > 0 || !c.resultAcked[server] {
		return false
	}
	delete(c.resultAcked, server)
	return true
}

// The acks are noted where the reply is decided. They may leave in
// another order — the commit gate holds a TaskResultAck and lets a
// HeartbeatAck decided after it go first — but the server hears both.

// noteResultAck records that a TaskResultAck goes to server.
func (c *Coordinator) noteResultAck(server proto.NodeID) {
	if !c.cfg.PullOnly {
		c.resultAcked[server] = true
	}
}

// noteHeartbeatAck records that a HeartbeatAck goes to server.
func (c *Coordinator) noteHeartbeatAck(server proto.NodeID) { delete(c.resultAcked, server) }

// dispatch answers standing offers with the jobs now queued: for each
// live offer, longest idle first, the assignment its server's pull
// would get, capped like a pull's by MaxTasksPerAck. One pass: what a
// pass leaves queued goes to the next pull or the next pass, whichever
// comes first.
func (c *Coordinator) dispatch() {
	if c.offers.order.Len() == 0 || c.eng.Len() == 0 {
		return // every message ends here: the usual case costs two loads
	}
	now := c.env.Now()
	for n := c.offers.order.Len(); n > 0 && c.eng.Len() > 0; n-- {
		o := c.offers.order.Front().Value.(*offer)
		if now.Sub(o.at) >= c.cfg.HeartbeatTimeout {
			// As silent as a suspect (the sweep that would say so may be
			// late, or stalled with the rest of this loop).
			c.offers.drop(o.server)
			c.cm.offersExpired.Inc()
			continue
		}
		server := o.server
		ack := c.heartbeatAck()
		ack.Tasks = c.assign(ack.Tasks, server, min(o.slots, c.cfg.MaxTasksPerAck))
		c.offers.spend(len(ack.Tasks))
		if len(ack.Tasks) == 0 {
			proto.ReleaseMessage(ack) // never sent
			continue
		}
		c.pushedTasks += len(ack.Tasks)
		c.cm.assignedPush.Add(uint64(len(ack.Tasks)))
		c.noteHeartbeatAck(server)
		c.afterDBCost(reply{to: server, msg: ack})
	}
	c.noteIdleSlots()
}

// subscriber returns where to push a result of call's session: the
// reply address of a live subscription.
func (c *Coordinator) subscriber(call proto.CallID) (proto.NodeID, bool) {
	key := sessionKey{call.User, call.Session}
	sub, ok := c.subs[key]
	if !ok {
		return "", false
	}
	if c.env.Now().Sub(sub.at) >= c.cfg.HeartbeatTimeout {
		delete(c.subs, key) // the client stopped polling: gone, or elsewhere
		return "", false
	}
	return sub.to, true
}
