// Package msglog implements RPC-V's sender-based message logging.
//
// Every component locally logs every sent message; on each
// communication, components synchronize their local state from these
// logs (paper §4.1, "Preventive Actions"). The log is the only recovery
// mechanism in the system — there is no reliable storage and no
// coordinated checkpointing.
//
// Three strategies are compared in the paper (figure 4):
//
//   - Optimistic: logging runs asynchronously, in parallel with the
//     communication, at low priority. Negligible overhead, but a crash
//     may occur before the logging operation completes, losing the
//     entry.
//   - Blocking pessimistic: the beginning of the communication is
//     blocked until logging completes. The entry is always durable
//     before the message is on the wire (~+30 % submission overhead on
//     the confined platform, dominated by disk access).
//   - Non-blocking pessimistic: the communication starts immediately,
//     but its *end* (the point at which the operation is considered
//     complete and the application may proceed) is blocked until the
//     logging operation completes. Small, variable overhead due to disk
//     cache management.
//
// The Log type is runtime-agnostic: it sequences disk writes and sends
// through the node.Env abstraction, so the same code drives both the
// simulator (where the disk model charges virtual latency) and the real
// runtime.
//
// Durability timing has two sources. When the node's store implements
// node.BatchDisk (the real runtime over internal/store), every
// strategy routes its durability wait through the store's group
// commit: the entry is staged with WriteAsync and the strategy's
// completion point — send start for blocking pessimistic, operation
// end for non-blocking — fires when the batch fsync covering it
// returns. Concurrent loggers thereby share fsyncs, which is what
// makes blocking-pessimistic logging nearly as cheap as optimistic
// without weakening the guarantee. Otherwise (the simulator) the
// configured DiskModel charges virtual latency, serialized through a
// disk-arm resource.
//
// # What an entry is on the disk
//
// An entry (entry.go) is a header plus the payloads it names, kept on a
// Shelf by three owners: the client's submit log and the server's result
// log on Messages (a payload under "blob/"+key), the coordinator's job
// table on a shelf of its own (params and output under
// coord/blob/<call>/p and /o). A payload under proto.BlobMin stays in
// the header, which is then the whole encoding. From BlobMin up the
// header is that encoding with the payload's bytes cut out and their
// count left (proto.EncodeLogged, proto.EncodeJobHeader), and the
// payload is the very slice the message or record carries, handed to the
// disk under node.Disk's ownership contract and never copied. Logging
// costs disk time, as in the paper, not a second copy in memory; header
// and payload together are the bytes of the whole encoding, so the disk
// model charges what it always did.
//
// An entry is written and removed by its key, the whole disk key of its
// header (Shelf.Key, Log.Key): its owner builds the key once per entry
// and keeps it where the entry's state lives in memory — the
// coordinator's job table, the server's unacknowledged results, the
// client's tracked calls — never in an encoded record; every rewrite and
// the removal reuse it. Loading and listing, at recovery, go by name
// (the key without the shelf's or log's prefix). The completions of the
// writes and deletes an owner stages many of are callbacks bound once
// over a queue of what they complete (Remover, Log's batched writes): a
// disk completes them in the order they were staged.
//
// The order rules, stated once for the three owners:
//
//   - going in (Shelf.Stage), the payloads a key does not hold yet are
//     staged before the header, in the same group commit where the disk
//     batches and as synchronous writes where it does not; a payload
//     known to have failed gets no header, and the owner learns which
//     write failed; a strategy's completion point is the header's commit;
//   - a header whose payload is missing or of another length decodes to
//     nothing (proto's DecodeLogged, DecodeJobHeader): it is not logged,
//     and is never resent with other bytes;
//   - going out (Shelf.Remove), the payloads' deletes are staged before
//     the header's, at once — staging order is commit order — so a crash
//     between them leaves a header that says so;
//   - Shelf.Sweep, which every owner runs at recovery, deletes the
//     payloads no header names;
//   - Log.Release is the first half of a Remove on purpose: it gives the
//     sender its bytes back and keeps the key.
package msglog

import (
	"fmt"
	"time"

	"rpcv/internal/fifo"
	"rpcv/internal/node"
	"rpcv/internal/proto"
)

// Strategy selects the logging protocol.
type Strategy uint8

const (
	// Optimistic logs asynchronously; a crash can lose recent entries.
	Optimistic Strategy = iota
	// BlockingPessimistic makes the entry durable before sending.
	BlockingPessimistic
	// NonBlockingPessimistic sends immediately but withholds completion
	// until the entry is durable.
	NonBlockingPessimistic
)

// String returns the strategy name used in figures and flags.
func (s Strategy) String() string {
	switch s {
	case Optimistic:
		return "optimistic"
	case BlockingPessimistic:
		return "blocking-pessimistic"
	case NonBlockingPessimistic:
		return "non-blocking-pessimistic"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// ParseStrategy converts a flag value to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "optimistic", "opt":
		return Optimistic, nil
	case "blocking-pessimistic", "blocking":
		return BlockingPessimistic, nil
	case "non-blocking-pessimistic", "non-blocking", "nonblocking":
		return NonBlockingPessimistic, nil
	}
	return 0, fmt.Errorf("msglog: unknown strategy %q", s)
}

// DiskModel computes the latency of a durable write of size bytes. The
// confined platform's IDE disk is modelled as a seek/rotational floor
// plus a streaming rate; tests can substitute constants.
type DiskModel func(size int) time.Duration

// IDEDisk returns the disk model calibrated to the paper's platform
// (IDE disk on an Athlon XP node): ~6 ms access floor, ~25 MB/s
// sequential writes.
func IDEDisk() DiskModel {
	return func(size int) time.Duration {
		return 6*time.Millisecond + time.Duration(float64(size)/25e6*float64(time.Second))
	}
}

// InstantDisk returns a zero-latency model (unit tests).
func InstantDisk() DiskModel { return func(int) time.Duration { return 0 } }

// Log is a sender-based message log bound to one node environment.
//
// LogAndSend is the single operation: it applies the configured
// strategy to (durably log entry, send msg to dst) and calls done (if
// non-nil) at the moment the operation is *complete* from the
// application's point of view — which is the quantity figure 4
// measures. For Optimistic, completion is at send; for
// BlockingPessimistic, after the write, before the send starts; for
// NonBlockingPessimistic, when the write finishes (the send having
// started immediately).
type Log struct {
	env      node.Env
	prefix   string
	strategy Strategy
	disk     DiskModel

	// diskArm serializes log writes: concurrent writes queue behind
	// one another, as on a real disk.
	diskArm node.SerialResource

	// pending tracks outstanding optimistic flush timers so Close can
	// cancel them.
	pending []node.Timer

	// n counts the entries on the disk (a listing at New, kept current
	// by write and Drop, so Len never lists). unwritten holds the entries
	// whose modelled write has not fired yet: a Drop that comes first
	// cancels the write instead of leaving the entry behind.
	n         int
	unwritten map[string]Entry

	// writing holds the batched writes staged, in staging order; written,
	// bound once, is the completion of the oldest. drops removes entries.
	writing fifo.Queue[pendingWrite]
	written func(error)
	drops   *Remover
}

// Config parameterizes a Log.
type Config struct {
	// Prefix namespaces this log's keys on the node disk.
	Prefix string
	// Strategy is the logging protocol; default Optimistic.
	Strategy Strategy
	// Disk is the write latency model; nil means IDEDisk().
	Disk DiskModel
}

// New creates a log on env's disk.
func New(env node.Env, cfg Config) *Log {
	if cfg.Disk == nil {
		cfg.Disk = IDEDisk()
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "msglog/"
	}
	Messages.Sweep(env, cfg.Prefix)
	l := &Log{env: env, prefix: cfg.Prefix, strategy: cfg.Strategy, disk: cfg.Disk,
		n: len(env.Disk().Keys(cfg.Prefix)), unwritten: make(map[string]Entry)}
	l.written = l.writeDone
	l.drops = NewRemover(env, Messages, l.dropFailed)
	return l
}

// Key is the key of the entry named name: the log's prefix and name.
// The owner builds it once per entry, keeps it, and hands it to
// LogAndSend (as the entry's Key), Release and Drop.
func (l *Log) Key(name string) string { return l.prefix + name }

// Strategy returns the configured strategy.
func (l *Log) Strategy() Strategy { return l.strategy }

// LogAndSend logs entry, whose Key is one of this log's (Key), and
// transmits msg to dst per the strategy. done, when non-nil, runs on the
// node's event loop when the operation completes (see Log's doc for what
// completion means per strategy).
func (l *Log) LogAndSend(dst proto.NodeID, msg proto.Message, entry Entry, done func()) {
	if _, ok := l.env.Disk().(node.BatchDisk); ok {
		l.logAndSendBatched(dst, msg, entry, done)
		return
	}
	l.unwritten[entry.Key] = entry
	// Header and payload are charged as the one write they were when
	// the entry was one value: together they are its bytes.
	d := l.diskArm.Acquire(l.env.Now(), l.disk(len(entry.Data)+len(entry.Blobs[0])))
	switch l.strategy {
	case Optimistic:
		// Send now; flush later at low priority. A crash before the
		// flush timer fires loses the entry — that is the optimism.
		l.env.Send(dst, msg)
		l.pending = append(l.pending, l.env.After(d, func() {
			l.write(entry.Key)
		}))
		if done != nil {
			done()
		}
	case BlockingPessimistic:
		// Durable write first; the communication begins only after.
		l.env.After(d, func() {
			l.write(entry.Key)
			l.env.Send(dst, msg)
			if done != nil {
				done()
			}
		})
	case NonBlockingPessimistic:
		// Send immediately; completion waits for the write. The write
		// overlaps the communication, so the added delay is only the
		// slack between disk and network times (small and variable —
		// disk cache management, per the paper).
		l.env.Send(dst, msg)
		l.env.After(d, func() {
			l.write(entry.Key)
			if done != nil {
				done()
			}
		})
	}
}

// logAndSendBatched is the real-store path: durability timing comes
// from the store's group commit, not the DiskModel. The entry is
// staged immediately (read-your-writes, so synchronization sees it)
// and the strategy decides what waits for the covering batch fsync:
// nothing (optimistic), the send (blocking pessimistic) or only the
// completion callback (non-blocking pessimistic — the commit overlaps
// the communication exactly as the paper describes).
func (l *Log) logAndSendBatched(dst proto.NodeID, msg proto.Message, entry Entry, done func()) {
	l.added(entry.Key)
	p := pendingWrite{key: entry.Key}
	switch l.strategy {
	case Optimistic:
		// Send now; the group commit makes the entry durable shortly
		// after. A crash before that batch's fsync loses the entry —
		// that is the optimism.
		l.env.Send(dst, msg)
	case BlockingPessimistic:
		// The communication begins only after the entry's batch is on
		// the platter. Concurrent submissions stage into the same
		// batch, so the per-call cost is a shared fsync.
		p.dst, p.msg, p.done = dst, msg, done
	case NonBlockingPessimistic:
		// Send immediately; completion waits for the covering batch.
		l.env.Send(dst, msg)
		p.done = done
	}
	l.writing.Push(p)
	if err := Messages.Stage(l.env, entry, l.written); err != nil {
		// A write known to have failed at once still completes in its
		// turn: behind the writes staged before it, as the disk completes
		// them, and at once when there are none.
		if l.writing.Len() == 1 {
			l.complete(l.writing.Unpush(), err)
		} else {
			l.writing.Back().failed = err
		}
	}
	if l.strategy == Optimistic && done != nil {
		done()
	}
}

// pendingWrite is an entry whose batched write has yet to complete, and
// what its strategy does then: send msg to dst (blocking pessimistic),
// and complete the operation (both pessimistic strategies). failed is
// the error of a write that failed at once, which no disk completes.
type pendingWrite struct {
	key    string
	dst    proto.NodeID
	msg    proto.Message
	done   func()
	failed error
}

// writeDone completes the oldest write staged, with the failed writes
// queued around it: those ahead of it first, those behind it next. Each
// leaves the queue before its completion runs, which may log again.
func (l *Log) writeDone(err error) {
	l.completeFailed()
	l.complete(l.writing.Pop(), err)
	l.completeFailed()
}

// completeFailed completes the failed writes at the head of the queue.
func (l *Log) completeFailed() {
	for l.writing.Len() > 0 && l.writing.Front().failed != nil {
		p := l.writing.Pop()
		l.complete(p, p.failed)
	}
}

func (l *Log) complete(p pendingWrite, err error) {
	if err != nil {
		l.env.Logf("msglog: write %s: %v", p.key, err)
	}
	// An entry that never became durable withholds a blocking send:
	// sending anyway would silently abandon durability-before-send, the
	// one property that strategy exists for — the ack-resync machinery
	// retries the operation. It still completes, so the submission
	// pipeline does not wedge on a broken disk.
	if p.msg != nil && err == nil {
		l.env.Send(p.dst, p.msg)
	}
	if p.done != nil {
		p.done()
	}
}

// write performs a modelled write when its timer fires, unless the
// entry was dropped while it waited.
func (l *Log) write(key string) {
	entry, ok := l.unwritten[key]
	if !ok {
		return
	}
	delete(l.unwritten, key)
	l.added(key)
	if err := Messages.Write(l.env, entry); err != nil {
		l.env.Logf("msglog: write %s: %v", key, err)
	}
}

// added counts key, about to be written, if the disk does not hold it.
func (l *Log) added(key string) {
	if _, ok := l.env.Disk().Read(key); !ok {
		l.n++
	}
}

// Get returns the logged entry named name, a recovery read.
func (l *Log) Get(name string) (Entry, bool) {
	return Messages.Load(l.env.Disk(), l.Key(name))
}

// Keys returns the names of all durably logged entries, sorted.
func (l *Log) Keys() []string {
	raw := l.env.Disk().Keys(l.prefix)
	keys := make([]string, len(raw))
	for i, k := range raw {
		keys[i] = k[len(l.prefix):]
	}
	return keys
}

// Len returns the number of entries the log holds.
func (l *Log) Len() int { return l.n }

// Drop removes the entry under key: the log's share of the distributed
// garbage collection. Logging capacities are bounded, so components
// flush logs whose information is safely replicated elsewhere (e.g.
// acknowledged results); the owner calls Drop at the moment that becomes
// true of an entry. The delete is staged where the disk batches —
// nothing waits for its fsync — and an entry whose delete fails stays:
// resending a logged message is always safe, so over-retention costs
// only space.
func (l *Log) Drop(key string) {
	if _, ok := l.unwritten[key]; ok {
		delete(l.unwritten, key)
		return
	}
	if _, ok := l.env.Disk().Read(key); !ok {
		return
	}
	l.n--
	l.drops.Remove(key, nil)
}

func (l *Log) dropFailed(key string, err error) {
	l.n++
	l.env.Logf("msglog: drop %s: %v", key, err)
}

// Release is the first half of a Drop: it gives back the payload stored
// beside an entry — the sender's own bytes, which the log shared — and
// keeps the header, for an owner that still needs the key to say it was
// used. What stays decodes to no message (Entry.Message refuses a header
// without its payload), can never be resent, and goes with Drop. An
// entry that carries its payload inline shares nothing and stays whole.
func (l *Log) Release(key string) {
	if e, ok := l.unwritten[key]; ok {
		e.Blobs = [2][]byte{}
		l.unwritten[key] = e
		return
	}
	// A failure is logged there; the payload then goes with the Drop.
	data, _ := l.env.Disk().Read(key)
	_, _ = Messages.removeBlobs(l.env, key, proto.NamedPayloads(data))
}

// Close cancels pending optimistic flushes (a clean shutdown; a crash
// simply never fires them).
func (l *Log) Close() {
	for _, t := range l.pending {
		t.Stop()
	}
	l.pending = nil
}
