package proto

// The hand-written binary codec. Every registered message kind plus
// JobRecord gets an explicit, field-by-field encoding built from a
// handful of primitives: unsigned/zigzag varints, length-prefixed
// strings and byte slices (with a +1 count scheme that preserves the
// nil/empty distinction through a round trip). There is no reflection
// and no per-encode allocation: encoders append into caller-supplied or
// pooled buffers sized by the WireSize hints, or — on the wire (Frames)
// — leave each large payload out of the buffer for the write to take
// where it lies.
// The reader decodes a blob in place and a frame through a window of
// at most BlobMin bytes: every byte slice is read or copied into one of
// its own — a frame's large payload into a pooled buffer its holder may
// give back (ReleasePayload) — and strings are interned so the small,
// endlessly repeated identifiers (node IDs, users, service names) are
// allocated once per decoder, not once per message. The message itself
// is a struct from its kind's pool, which its receiver may give back
// (ReleaseMessage).
//
// Decoding is hardened for the fuzzer and for torn frames: every read
// is bounds-checked against the remaining input through a sticky
// error, declared lengths are validated against the bytes actually
// present before any allocation, and trailing garbage after a complete
// body is rejected. Garbage therefore produces an error, never a panic
// and never an oversized allocation.

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// binMagic opens every encoding: the version preface of a connection,
// and the first byte of every storage blob. Input that does not start
// with it is refused on the wire and corrupt on the disk. Like the kind
// bytes it is wire- and disk-stable.
const (
	binMagic   = 0xBC
	binVersion = 0x02
)

// MaxFrame bounds a single wire frame (and with it the decode buffer a
// peer can make this node allocate). Larger messages should not exist:
// the biggest legitimate payloads are result archives, well under this.
const MaxFrame = 1 << 26 // 64 MiB

// ErrCorrupt reports a malformed binary encoding: a truncated field, a
// length exceeding the available bytes, a non-canonical bool, an
// unknown message kind or trailing garbage.
var ErrCorrupt = errors.New("proto: corrupt binary encoding")

// Message kind bytes. Wire-stable: append new kinds, never renumber.
const (
	kindInvalid uint8 = iota
	kindSubmit
	kindSubmitAck
	kindPoll
	kindResults
	kindSyncRequest
	kindSyncReply
	_ // 7, retired: a per-call fetch request no node sent
	_ // 8, retired: its reply
	kindHeartbeat
	kindHeartbeatAck
	kindTaskResult
	kindTaskResultAck
	kindTaskCancel
	kindServerSync
	kindServerSyncReply
	kindReplicaUpdate
	kindReplicaAck
	_             // 18, retired: a shard-map request no node sent
	_             // 19, retired: its reply
	_             // 20, retired: a redirect to a session's shard
	_             // 21, retired: a cross-shard sync
	_             // 22, retired: its ack
	_             // 23, retired: a cross-shard steal request
	_             // 24, retired: its grant
	kindJobRecord // storage blobs only; JobRecord is not a Message
	_             // 26, retired: a conformance run's fault record
	_             // 27, retired: its verdict record
	kindJobHeader // storage blobs only: a job record minus its external payloads
)

// kindBare, set in the kind byte of a storage blob, makes it a log
// header (EncodeLogged): the message's payload field holds its count
// and none of its bytes, which are stored beside the header. It never
// travels: no frame's kind has it.
const kindBare uint8 = 0x80

// kindOf maps a message to its wire kind byte (0 when unregistered).
func kindOf(msg Message) uint8 {
	switch msg.(type) {
	case *Submit:
		return kindSubmit
	case *SubmitAck:
		return kindSubmitAck
	case *Poll:
		return kindPoll
	case *Results:
		return kindResults
	case *SyncRequest:
		return kindSyncRequest
	case *SyncReply:
		return kindSyncReply
	case *Heartbeat:
		return kindHeartbeat
	case *HeartbeatAck:
		return kindHeartbeatAck
	case *TaskResult:
		return kindTaskResult
	case *TaskResultAck:
		return kindTaskResultAck
	case *TaskCancel:
		return kindTaskCancel
	case *ServerSync:
		return kindServerSync
	case *ServerSyncReply:
		return kindServerSyncReply
	case *ReplicaUpdate:
		return kindReplicaUpdate
	case *ReplicaAck:
		return kindReplicaAck
	default:
		return kindInvalid
	}
}

// ---------------------------------------------------------------------
// Pooled encode buffers
// ---------------------------------------------------------------------

// EncodeBuffer is a pooled scratch buffer for a small encoding: a
// storage encoder borrows one, appends into B and copies the result out
// into a pooled buffer of its size class (encodeSized), so steady-state
// encodes allocate nothing that their owners give back. Wire frames do
// not come from the pool: each sender keeps its own Frames.
type EncodeBuffer struct{ B []byte }

var bufferPool = sync.Pool{New: func() any { return &EncodeBuffer{B: make([]byte, 0, scratchBuffer)} }}

// scratchBuffer is the capacity of a fresh pooled buffer.
const scratchBuffer = 4096

// GetBuffer borrows a pooled encode buffer (len 0).
func GetBuffer() *EncodeBuffer { return bufferPool.Get().(*EncodeBuffer) }

// maxPooledBuffer is the largest buffer kept for reuse: by the pool
// (PutBuffer) and by a Frames between batches.
const maxPooledBuffer = 1 << 20

// PutBuffer returns a buffer to the pool. Oversized buffers (a one-off
// giant encoding) are dropped instead of pinning their memory forever.
func PutBuffer(b *EncodeBuffer) {
	if b == nil || cap(b.B) > maxPooledBuffer {
		return
	}
	b.B = b.B[:0]
	bufferPool.Put(b)
}

// ---------------------------------------------------------------------
// Pooled payload buffers
// ---------------------------------------------------------------------

// A payload the wire decoder reads, from BlobMin bytes up to
// maxPooledBuffer, is read into a buffer from payloadPools, and so is
// every storage encoding of up to scratchMax bytes copied out of its
// scratch buffer (encodeSized): a job header, a log entry. ReleasePayload
// gives one back once its holder is done with it — the runtime, for a
// handler that gave a payload up (node.Releaser says who does and when),
// and the owner of a stored header once the store has let go of it
// (node.Disk says when that is). Storage decodes — blobs, log entries,
// job records — never draw from the pools: what they return is kept.
//
// A buffer's capacity is its size class: Go's own size classes up to
// 32 KiB, whole 8 KiB pages above — exactly what the allocator rounds a
// make of the same length up to, and what an append onto nil gets. So a
// pooled buffer that is kept for good (the coordinator's record, a
// client's result, a header that stays stored) costs no more than a
// make would have, and a released one fits every later buffer of its
// class.
var payloadPools [len(smallPayloadClasses) + (maxPooledBuffer-maxSmallPayload)/payloadPage]sync.Pool // of *payloadBuf

// smallPayloadClasses are the runtime's size classes up to
// maxSmallPayload (runtime/sizeclasses.go); the wire reads into those
// from BlobMin up (pooledPayload), storage encodes into all of them.
var smallPayloadClasses = [...]int{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256,
	288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024, 1152, 1280, 1408, 1536, 1792, 2048,
	2304, 2688, 3072, 3200, 3456, 4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472, 9728, 10240,
	10880, 12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760, 24576, 27264, 28672, 32768}

const (
	maxSmallPayload = 32 << 10 // the runtime's largest small object
	payloadPage     = 8 << 10  // the runtime's page: a large object is whole pages
)

// payloadBuf carries a pooled buffer: a pointer, so that pooling one
// allocates nothing. The carriers of buffers that are out wait in
// payloadBufs.
type payloadBuf struct{ b []byte }

var payloadBufs sync.Pool // of *payloadBuf, empty

// payloadMisses counts, per class, the buffers getPayload found no
// pooled one for (PoolMisses).
var payloadMisses [len(payloadPools)]atomic.Uint64

// payloadClass is the index of the smallest class that holds n bytes,
// 0 < n <= maxPooledBuffer.
func payloadClass(n int) int {
	if n <= maxSmallPayload {
		i, _ := slices.BinarySearch(smallPayloadClasses[:], n)
		return i
	}
	return len(smallPayloadClasses) + (n-maxSmallPayload+payloadPage-1)/payloadPage - 1
}

// payloadClassCap is class c's capacity.
func payloadClassCap(c int) int {
	if c < len(smallPayloadClasses) {
		return smallPayloadClasses[c]
	}
	return maxSmallPayload + (c-len(smallPayloadClasses)+1)*payloadPage
}

// pooledPayload reports whether a payload of n bytes is read into a
// pooled buffer on the wire. A smaller one is read into a make: the
// handlers keep those, and give back only what they are sure of.
func pooledPayload(n uint64) bool { return n >= BlobMin && n <= maxPooledBuffer }

// getPayload returns a buffer of n bytes, 0 < n <= maxPooledBuffer,
// pooled or fresh, to be overwritten whole.
func getPayload(n int) []byte {
	c := payloadClass(n)
	if pb, _ := payloadPools[c].Get().(*payloadBuf); pb != nil {
		b := pb.b[:n]
		pb.b = nil
		payloadBufs.Put(pb)
		return b
	}
	payloadMisses[c].Add(1)
	return make([]byte, n, payloadClassCap(c))
}

// ReleasePayload hands b back for a later buffer of its class to be
// read or encoded into: a payload a WireDecoder returned, or a storage
// encoding (EncodeJobHeader, EncodeLogged, EncodeMessage) the store has
// let go of. The caller gives up b and every slice of its array:
// nothing may read or write them after, and no other slice may reach
// past b's capacity into the same array. A slice whose capacity is not a
// class's — over maxPooledBuffer, or a make of another length — is left
// to the collector.
func ReleasePayload(b []byte) {
	n := cap(b)
	if n == 0 || n > maxPooledBuffer {
		return
	}
	c := payloadClass(n)
	if payloadClassCap(c) != n {
		return
	}
	pb, _ := payloadBufs.Get().(*payloadBuf)
	if pb == nil {
		pb = new(payloadBuf)
	}
	pb.b = b[:0]
	clobber(pb.b[:cap(pb.b)])
	payloadPools[c].Put(pb)
}

// ---------------------------------------------------------------------
// Pooled message structs
// ---------------------------------------------------------------------

// Every message readMessageBody decodes is a struct taken from its
// kind's pool, every message a node.Forgetter sends is one it took with
// Pooled or Blank, and ReleaseMessage gives one back: the runtime does,
// for a handler that keeps no pointer to the structs it receives or
// sends nor a slice of their lists (node.Forgetter), once Receive has
// returned or once the batch that carried the struct is written or
// dropped. A struct goes back with its lists: each keeps its array,
// truncated to length 0 with its elements zeroed, for the next decode
// to read the list into or the next sender to append to — every list
// but HeartbeatAck.Coordinators, which a coordinator sends as its own
// member list, and an array above maxKeptList, which a resync-sized
// list has and the next messages do not need. What the elements pointed
// to — strings, payloads — is not touched: it stays with whoever kept
// it. Storage decodes draw from the pools too, and keep what they get.
//
// A struct goes back zeroed but for its lists, so the pool pins nothing
// the message pointed to. In race builds it goes back poisoned instead,
// its kept arrays over their whole capacity, and so does a payload that
// ReleasePayload pools (clobber_race.go): a reader that kept a struct, a
// list or a payload past its give-back reads garbage rather than the
// next message's fields, elements or bytes, and a struct given back
// twice — sent twice, or sent and also received — panics at its second
// give-back.
var msgPools struct {
	submit          msgPool[Submit]
	submitAck       msgPool[SubmitAck]
	poll            msgPool[Poll]
	results         msgPool[Results]
	syncRequest     msgPool[SyncRequest]
	syncReply       msgPool[SyncReply]
	heartbeat       msgPool[Heartbeat]
	heartbeatAck    msgPool[HeartbeatAck]
	taskResult      msgPool[TaskResult]
	taskResultAck   msgPool[TaskResultAck]
	taskCancel      msgPool[TaskCancel]
	serverSync      msgPool[ServerSync]
	serverSyncReply msgPool[ServerSyncReply]
	replicaUpdate   msgPool[ReplicaUpdate]
	replicaAck      msgPool[ReplicaAck]
}

// msgPool is one kind's pool of structs, and the count of the takes it
// found empty (PoolMisses).
type msgPool[T any] struct {
	p      sync.Pool
	misses atomic.Uint64
}

// get returns a struct from the pool, every field zero but its kept
// lists (at length 0), or a new one.
func (p *msgPool[T]) get() *T {
	m, _ := p.p.Get().(*T)
	if m == nil {
		p.misses.Add(1)
		return new(T)
	}
	unpoison(m)
	return m
}

// fill returns a struct from the pool, or a new one, holding v: the
// arrays it kept are dropped.
func (p *msgPool[T]) fill(v T) *T {
	m := p.get()
	*m = v
	return m
}

func (p *msgPool[T]) put(m *T) {
	if poisoned(m) {
		panic("proto: message recycled twice")
	}
	if l, ok := any(m).(listCarrier); ok {
		l.keepLists()
	} else {
		var zero T
		*m = zero
	}
	clobberStruct(m)
	p.p.Put(m)
}

// A listCarrier is a message kind with lists. keepLists zeroes the
// struct but for each list's array, kept at length 0 (keep).
type listCarrier interface{ keepLists() }

func (m *Poll) keepLists()    { *m = Poll{Have: keep(m.Have)} }
func (m *Results) keepLists() { *m = Results{Results: keep(m.Results)} }
func (m *SyncReply) keepLists() {
	*m = SyncReply{Known: keep(m.Known)}
}

// keepLists drops Coordinators: a coordinator sends its own member list
// there, which no pool may keep.
func (m *HeartbeatAck) keepLists() { *m = HeartbeatAck{Tasks: keep(m.Tasks)} }
func (m *ServerSync) keepLists() {
	*m = ServerSync{Tasks: keep(m.Tasks), Running: keep(m.Running)}
}
func (m *ServerSyncReply) keepLists() {
	*m = ServerSyncReply{Resend: keep(m.Resend), Drop: keep(m.Drop)}
}
func (m *ReplicaUpdate) keepLists() {
	*m = ReplicaUpdate{Jobs: keep(m.Jobs), MaxSeqs: keep(m.MaxSeqs)}
}

// maxKeptList bounds, in bytes, the array a given-back struct keeps of a
// list: a poll's or a push's few results, an assignment's tasks. One
// resync's thousands stay with no pool.
const maxKeptList = 4 << 10

// keep is the array of xs, at length 0 and zeroed over its capacity, or
// nil when that is over maxKeptList.
func keep[T any](xs []T) []T {
	var zero T
	if cap(xs)*int(unsafe.Sizeof(zero)) > maxKeptList {
		return nil
	}
	clear(xs[:cap(xs)])
	return xs[:0]
}

// Pooled returns a struct of v's kind, holding v, from the pool the
// wire decoder fills from: the struct a handler that keeps none of the
// structs it sends (node.Forgetter) builds each message in, for the
// runtime to give back once the message has left. Its lists are v's,
// which go back with it: none may be the handler's own. A message with
// lists to build is better begun with Blank.
func Pooled[T any, P interface {
	*T
	Message
}](v T) P {
	return P(poolOf[T]().fill(v))
}

// Blank returns a struct of T's kind from the same pool as Pooled,
// every field zero but its lists: each is the array the struct kept from
// its last message at length 0, or nil, for the sender to append the
// list into. So a list travels, and is recycled, as part of its message.
func Blank[T any, P interface {
	*T
	Message
}]() P {
	return P(poolOf[T]().get())
}

// poolOf is the pool of T's structs. T is a message kind: any other
// type panics.
func poolOf[T any]() *msgPool[T] {
	var pool any
	switch any((*T)(nil)).(type) {
	case *Submit:
		pool = &msgPools.submit
	case *SubmitAck:
		pool = &msgPools.submitAck
	case *Poll:
		pool = &msgPools.poll
	case *Results:
		pool = &msgPools.results
	case *SyncRequest:
		pool = &msgPools.syncRequest
	case *SyncReply:
		pool = &msgPools.syncReply
	case *Heartbeat:
		pool = &msgPools.heartbeat
	case *HeartbeatAck:
		pool = &msgPools.heartbeatAck
	case *TaskResult:
		pool = &msgPools.taskResult
	case *TaskResultAck:
		pool = &msgPools.taskResultAck
	case *TaskCancel:
		pool = &msgPools.taskCancel
	case *ServerSync:
		pool = &msgPools.serverSync
	case *ServerSyncReply:
		pool = &msgPools.serverSyncReply
	case *ReplicaUpdate:
		pool = &msgPools.replicaUpdate
	case *ReplicaAck:
		pool = &msgPools.replicaAck
	}
	return pool.(*msgPool[T])
}

// ReleaseMessage hands msg's struct back for a later decode, Pooled or
// Blank of its kind to fill. The caller gives up the struct and its
// lists: nothing may read or write either after, nor hold a field's or
// an element's address, nor give the struct back again. It keeps what
// the struct and its elements point to: strings and payloads. A message
// of an unregistered type is left to the collector.
func ReleaseMessage(msg Message) {
	switch m := msg.(type) {
	case *Submit:
		msgPools.submit.put(m)
	case *SubmitAck:
		msgPools.submitAck.put(m)
	case *Poll:
		msgPools.poll.put(m)
	case *Results:
		msgPools.results.put(m)
	case *SyncRequest:
		msgPools.syncRequest.put(m)
	case *SyncReply:
		msgPools.syncReply.put(m)
	case *Heartbeat:
		msgPools.heartbeat.put(m)
	case *HeartbeatAck:
		msgPools.heartbeatAck.put(m)
	case *TaskResult:
		msgPools.taskResult.put(m)
	case *TaskResultAck:
		msgPools.taskResultAck.put(m)
	case *TaskCancel:
		msgPools.taskCancel.put(m)
	case *ServerSync:
		msgPools.serverSync.put(m)
	case *ServerSyncReply:
		msgPools.serverSyncReply.put(m)
	case *ReplicaUpdate:
		msgPools.replicaUpdate.put(m)
	case *ReplicaAck:
		msgPools.replicaAck.put(m)
	}
}

// A PoolMiss reads one pool's misses: the takes that found it empty and
// allocated, of a message kind's structs (Kind set) or of a payload
// class's buffers (Class, the class's capacity in bytes, set). Only a
// miss counts, so a hit costs no atomic. The pools, and so the counts,
// are the process's.
type PoolMiss struct {
	Kind  string
	Class int
	Count func() uint64
}

// PoolMisses lists every pool's miss count: each message kind's, then
// each payload class's, smallest first.
func PoolMisses() []PoolMiss {
	p := &msgPools
	out := []PoolMiss{
		{Kind: (*Submit)(nil).Kind(), Count: p.submit.misses.Load},
		{Kind: (*SubmitAck)(nil).Kind(), Count: p.submitAck.misses.Load},
		{Kind: (*Poll)(nil).Kind(), Count: p.poll.misses.Load},
		{Kind: (*Results)(nil).Kind(), Count: p.results.misses.Load},
		{Kind: (*SyncRequest)(nil).Kind(), Count: p.syncRequest.misses.Load},
		{Kind: (*SyncReply)(nil).Kind(), Count: p.syncReply.misses.Load},
		{Kind: (*Heartbeat)(nil).Kind(), Count: p.heartbeat.misses.Load},
		{Kind: (*HeartbeatAck)(nil).Kind(), Count: p.heartbeatAck.misses.Load},
		{Kind: (*TaskResult)(nil).Kind(), Count: p.taskResult.misses.Load},
		{Kind: (*TaskResultAck)(nil).Kind(), Count: p.taskResultAck.misses.Load},
		{Kind: (*TaskCancel)(nil).Kind(), Count: p.taskCancel.misses.Load},
		{Kind: (*ServerSync)(nil).Kind(), Count: p.serverSync.misses.Load},
		{Kind: (*ServerSyncReply)(nil).Kind(), Count: p.serverSyncReply.misses.Load},
		{Kind: (*ReplicaUpdate)(nil).Kind(), Count: p.replicaUpdate.misses.Load},
		{Kind: (*ReplicaAck)(nil).Kind(), Count: p.replicaAck.misses.Load},
	}
	for c := range payloadMisses {
		out = append(out, PoolMiss{Class: payloadClassCap(c), Count: payloadMisses[c].Load})
	}
	return out
}

// ---------------------------------------------------------------------
// Append primitives
// ---------------------------------------------------------------------

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBytes length-prefixes b with a +1 scheme: 0 encodes nil, n+1
// encodes a (possibly empty) slice of n bytes, so nil survives a round
// trip — handlers and tests distinguish "no payload" from "empty".
func appendBytes(dst []byte, b []byte) []byte {
	if b == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b))+1)
	return append(dst, b...)
}

// cut is a payload an encoding left out: its bytes belong at offset at
// of the encoding, right after the count appendPayload wrote.
type cut struct {
	at int
	b  []byte
}

// appendPayload encodes a byte field that can be large: appendBytes, or
// — for an encoding that leaves large payloads out (cuts non-nil) — from
// BlobMin bytes up the count alone, the payload itself noted in *cuts,
// so that the encoding with each cut spliced back in is, byte for byte,
// the whole encoding. A log header (EncodeLogged) is such an encoding;
// so is a batch of wire frames (Frames).
func appendPayload(dst []byte, b []byte, cuts *[]cut) []byte {
	if cuts == nil || len(b) < BlobMin {
		return appendBytes(dst, b)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b))+1)
	*cuts = append(*cuts, cut{at: len(dst), b: b})
	return dst
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendCallID(dst []byte, c CallID) []byte {
	dst = appendString(dst, string(c.User))
	dst = binary.AppendUvarint(dst, uint64(c.Session))
	return binary.AppendUvarint(dst, uint64(c.Seq))
}

func appendTaskID(dst []byte, t TaskID) []byte {
	dst = appendCallID(dst, t.Call)
	return binary.AppendUvarint(dst, uint64(t.Instance))
}

// appendSlice encodes xs with the +1 nil-preserving count scheme.
func appendSlice[T any](dst []byte, xs []T, app func([]byte, T) []byte) []byte {
	if xs == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(xs))+1)
	for i := range xs {
		dst = app(dst, xs[i])
	}
	return dst
}

// appendEach is appendSlice for the elements that carry a payload
// field, handed on to app with the encoding's cuts (appendPayload).
func appendEach[T any](dst []byte, xs []T, cuts *[]cut, app func([]byte, *T, *[]cut) []byte) []byte {
	if xs == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(xs))+1)
	for i := range xs {
		dst = app(dst, &xs[i], cuts)
	}
	return dst
}

func appendSeq(dst []byte, s RPCSeq) []byte  { return binary.AppendUvarint(dst, uint64(s)) }
func appendNode(dst []byte, n NodeID) []byte { return appendString(dst, string(n)) }
func appendTask(dst []byte, t TaskID) []byte { return appendTaskID(dst, t) }
func appendDur(dst []byte, d time.Duration) []byte {
	return binary.AppendVarint(dst, int64(d))
}

// ---------------------------------------------------------------------
// Read side
// ---------------------------------------------------------------------

// internTable deduplicates decoded strings. The protocol's strings are
// a tiny, hot set (node IDs, user IDs, service names) repeated in
// nearly every message; interning turns their per-decode allocation
// into a map probe, which Go performs without allocating for a
// []byte-keyed lookup. Both table size and entry length are capped so
// adversarial or high-cardinality inputs (error strings) degrade to
// plain allocation instead of growing the table without bound.
type internTable struct{ m map[string]string }

const (
	maxInternEntries = 4096
	maxInternLen     = 128
)

func (t *internTable) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if t == nil || len(b) > maxInternLen {
		return string(b)
	}
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if t.m == nil {
		t.m = make(map[string]string)
	}
	if len(t.m) < maxInternEntries {
		t.m[s] = s
	}
	return s
}

// binReader decodes one blob in place, or one wire frame through a
// window (WireDecoder): buf then holds the part of the frame read so
// far and not yet parsed, up to the window's size, and the left bytes
// after it are still in src, read on demand — a field that is not all
// in buf is read on into the window (fill), or, when its caller wants
// the bytes in a slice of its own (read), straight into that slice.
// Errors are sticky: after the first malformed field or failed read
// every further read is a no-op returning zero values, and the caller
// checks err once at the end — ErrCorrupt, or what src returned.
type binReader struct {
	buf    []byte
	pos    int
	err    error
	intern *internTable

	src  io.Reader // nil (and left 0) for a blob
	left int

	// bare marks a log header: payload reads a count into payloadLen
	// and no bytes (see appendPayload).
	bare       bool
	payloadLen int
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = ErrCorrupt
	}
}

// remaining is what is left of the blob or frame, window and stream.
func (r *binReader) remaining() int { return len(r.buf) - r.pos + r.left }

// fill moves the window's unparsed bytes to its front and reads the
// frame on into the rest of it: after it buf holds a window's worth of
// the frame, or all the frame has left.
func (r *binReader) fill() {
	have := copy(r.buf[:cap(r.buf)], r.buf[r.pos:])
	n := min(cap(r.buf)-have, r.left)
	buf := r.buf[:have+n]
	if _, err := io.ReadFull(r.src, buf[have:]); err != nil {
		r.tear(err)
		return
	}
	r.buf, r.pos, r.left = buf, 0, r.left-n
}

// read fills p with the next len(p) bytes, which the caller has checked
// remain: those in buf, then the rest straight from the stream.
func (r *binReader) read(p []byte) {
	n := copy(p, r.buf[r.pos:])
	r.pos += n
	if n == len(p) {
		return
	}
	if _, err := io.ReadFull(r.src, p[n:]); err != nil {
		r.tear(err)
		return
	}
	r.left -= len(p) - n
}

// tear records a failed read: the stream ended or broke inside a frame.
func (r *binReader) tear(err error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if r.err == nil {
		r.err = err
	}
}

func (r *binReader) u8() byte {
	if r.left > 0 && r.pos >= len(r.buf) && r.err == nil {
		r.fill()
	}
	if r.err != nil || r.pos >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// varintFill makes sure a varint is all in the window when the frame
// has one that long.
func (r *binReader) varintFill() {
	if r.left > 0 && len(r.buf)-r.pos < binary.MaxVarintLen64 && r.err == nil {
		r.fill()
	}
}

// uvarint and varint read only the minimal form of a varint, the one
// every writer emits: a longer one — a last group of 0x00 behind a
// continuation, which encoding/binary accepts — is corrupt, so that
// each value has exactly one encoding that decodes.
func (r *binReader) uvarint() uint64 {
	r.varintFill()
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 || (n > 1 && r.buf[r.pos+n-1] == 0) {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *binReader) varint() int64 {
	r.varintFill()
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 || (n > 1 && r.buf[r.pos+n-1] == 0) {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

// take returns the next n bytes, valid until the next read: in place
// in the blob or the window, or — wider than the window — read into a
// slice of their own. A length beyond the bytes that remain is
// corruption, detected before any allocation.
func (r *binReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail()
		return nil
	}
	if int(n) > len(r.buf)-r.pos {
		if int(n) > cap(r.buf) {
			b := make([]byte, n)
			r.read(b)
			return b
		}
		if r.fill(); r.err != nil {
			return nil
		}
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

func (r *binReader) str() string {
	b := r.take(r.uvarint())
	if r.err != nil {
		return ""
	}
	return r.intern.get(b)
}

// bytes reads a byte slice into one of its own, exactly as long as the
// field: a payload of a frame comes straight from the stream, save what
// the window already held of it, into a pooled buffer when it is one
// of getPayload's sizes. The read overwrites the whole slice; a torn
// one drops it.
func (r *binReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n-1 > uint64(r.remaining()) {
		r.fail()
		return nil
	}
	// make, not append: append of zero elements onto nil would turn an
	// encoded empty slice back into nil.
	var out []byte
	if r.src != nil && pooledPayload(n-1) {
		out = getPayload(int(n - 1))
	} else {
		out = make([]byte, n-1)
	}
	if r.read(out); r.err != nil {
		return nil
	}
	return out
}

// payload reads a message's payload field: bytes, or in a log header
// the count alone (see appendPayload).
func (r *binReader) payload() []byte {
	if !r.bare {
		return r.bytes()
	}
	n := r.uvarint()
	if n == 0 || n-1 > math.MaxInt32 {
		r.fail()
		return nil
	}
	r.payloadLen = int(n - 1)
	return nil
}

func (r *binReader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail()
		return false
	}
}

// length reads a stored byte count. It sizes a comparison, never an
// allocation, so the bound only keeps a corrupt one from overflowing
// int on the way there.
func (r *binReader) length() int {
	n := r.uvarint()
	if n > math.MaxInt32 {
		r.fail()
		return 0
	}
	return int(n)
}

// u32 reads a varint that a uint32 was encoded as (a task instance):
// one above math.MaxUint32 is corrupt, not cut down to 32 bits, which
// would decode as another number than the encoding holds.
func (r *binReader) u32() uint32 {
	n := r.uvarint()
	if n > math.MaxUint32 {
		r.fail()
		return 0
	}
	return uint32(n)
}

func (r *binReader) dur() time.Duration { return time.Duration(r.varint()) }
func (r *binReader) seq() RPCSeq        { return RPCSeq(r.uvarint()) }
func (r *binReader) node() NodeID       { return NodeID(r.str()) }

func (r *binReader) call() CallID {
	return CallID{User: UserID(r.str()), Session: SessionID(r.uvarint()), Seq: r.seq()}
}

func (r *binReader) task() TaskID {
	return TaskID{Call: r.call(), Instance: r.u32()}
}

// readSlice decodes a +1-counted slice into kept's array, the one the
// message struct kept of the list (keep), growing it when the list is
// longer. The declared element count is validated against the remaining
// bytes (every element encodes at least one byte) and a fresh array's
// capacity is additionally capped: in-memory elements can be far larger
// than their encodings (a JobRecord is ~176 bytes, its minimal encoding
// ~14), so trusting a corrupt count with a full preallocation would let
// one frame force an allocation orders of magnitude beyond the input.
// Legitimate large slices just grow through append's amortized doubling.
func readSlice[T any](r *binReader, kept []T, rd func(*binReader) T) []T {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	n--
	if n > uint64(r.remaining()) {
		r.fail()
		return nil
	}
	out := kept[:0]
	if out == nil {
		out = make([]T, 0, min(n, 256))
	}
	for i := uint64(0); i < n; i++ {
		out = append(out, rd(r))
		if r.err != nil {
			return nil
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Per-type bodies
// ---------------------------------------------------------------------

func appendResult(dst []byte, res *Result, cuts *[]cut) []byte {
	dst = appendCallID(dst, res.Call)
	dst = appendPayload(dst, res.Output, cuts)
	dst = appendString(dst, res.Err)
	return appendNode(dst, res.Server)
}

func readResult(r *binReader) Result {
	return Result{Call: r.call(), Output: r.bytes(), Err: r.str(), Server: r.node()}
}

func appendAssignment(dst []byte, t *TaskAssignment, cuts *[]cut) []byte {
	dst = appendTaskID(dst, t.Task)
	dst = appendString(dst, t.Service)
	dst = appendPayload(dst, t.Params, cuts)
	dst = appendDur(dst, t.ExecTime)
	return binary.AppendVarint(dst, int64(t.ResultSize))
}

func readAssignment(r *binReader) TaskAssignment {
	return TaskAssignment{Task: r.task(), Service: r.str(), Params: r.bytes(),
		ExecTime: r.dur(), ResultSize: int(r.varint())}
}

func appendSessionMax(dst []byte, m SessionMax) []byte {
	dst = appendString(dst, string(m.User))
	dst = binary.AppendUvarint(dst, uint64(m.Session))
	dst = appendSeq(dst, m.MaxSeq)
	return appendSeq(dst, m.Collected)
}

func readSessionMax(r *binReader) SessionMax {
	return SessionMax{User: UserID(r.str()), Session: SessionID(r.uvarint()),
		MaxSeq: r.seq(), Collected: r.seq()}
}

func appendJobBody(dst []byte, j *JobRecord, cuts *[]cut) []byte {
	dst = appendCallID(dst, j.Call)
	dst = appendString(dst, j.Service)
	dst = appendPayload(dst, j.Params, cuts)
	dst = appendDur(dst, j.ExecTime)
	dst = binary.AppendVarint(dst, int64(j.ResultSize))
	dst = append(dst, byte(j.State))
	dst = binary.AppendUvarint(dst, uint64(j.Instance))
	dst = appendPayload(dst, j.Output, cuts)
	dst = appendString(dst, j.ResultErr)
	return appendNode(dst, j.Server)
}

func readJobBody(r *binReader) JobRecord {
	return JobRecord{
		Call:       r.call(),
		Service:    r.str(),
		Params:     r.bytes(),
		ExecTime:   r.dur(),
		ResultSize: int(r.varint()),
		State:      TaskState(r.u8()),
		Instance:   r.u32(),
		Output:     r.bytes(),
		ResultErr:  r.str(),
		Server:     r.node(),
	}
}

// The two messages that carry a payload as a field of their own encode
// through these; payloadOf names the field, the one a log header cuts.

func appendSubmitBody(dst []byte, m *Submit, cuts *[]cut) []byte {
	dst = appendCallID(dst, m.Call)
	dst = appendString(dst, m.Service)
	dst = appendPayload(dst, m.Params, cuts)
	dst = appendDur(dst, m.ExecTime)
	return binary.AppendVarint(dst, int64(m.ResultSize))
}

func appendTaskResultBody(dst []byte, m *TaskResult, cuts *[]cut) []byte {
	dst = appendNode(dst, m.From)
	dst = appendTaskID(dst, m.Task)
	dst = appendPayload(dst, m.Output, cuts)
	return appendString(dst, m.Err)
}

func payloadOf(msg Message) *[]byte {
	switch m := msg.(type) {
	case *Submit:
		return &m.Params
	case *TaskResult:
		return &m.Output
	}
	return nil
}

// appendMessageBody appends msg's binary body (no kind byte, no magic),
// its large payloads left out into cuts unless cuts is nil (see
// appendPayload). It panics on an unregistered message type: a
// programming error, which the package's tests report (every type with
// a Kind method is sampled, and every sample round-trips).
func appendMessageBody(dst []byte, msg Message, cuts *[]cut) []byte {
	switch m := msg.(type) {
	case *Submit:
		return appendSubmitBody(dst, m, cuts)
	case *SubmitAck:
		dst = appendCallID(dst, m.Call)
		return appendSeq(dst, m.MaxSeq)
	case *Poll:
		dst = appendString(dst, string(m.User))
		dst = binary.AppendUvarint(dst, uint64(m.Session))
		dst = appendSeq(dst, m.Ack)
		return appendSlice(dst, m.Have, appendSeq)
	case *Results:
		dst = appendString(dst, string(m.User))
		dst = binary.AppendUvarint(dst, uint64(m.Session))
		return appendEach(dst, m.Results, cuts, appendResult)
	case *SyncRequest:
		dst = appendString(dst, string(m.User))
		dst = binary.AppendUvarint(dst, uint64(m.Session))
		dst = appendSeq(dst, m.MaxSeq)
		return appendBool(dst, m.HaveLog)
	case *SyncReply:
		dst = appendString(dst, string(m.User))
		dst = binary.AppendUvarint(dst, uint64(m.Session))
		dst = appendSeq(dst, m.MaxSeq)
		dst = appendSeq(dst, m.Collected)
		return appendSlice(dst, m.Known, appendSeq)
	case *Heartbeat:
		dst = appendNode(dst, m.From)
		dst = append(dst, byte(m.Role))
		dst = binary.AppendVarint(dst, int64(m.Capacity))
		return appendBool(dst, m.WantWork)
	case *HeartbeatAck:
		dst = appendNode(dst, m.From)
		dst = appendEach(dst, m.Tasks, cuts, appendAssignment)
		return appendSlice(dst, m.Coordinators, appendNode)
	case *TaskResult:
		return appendTaskResultBody(dst, m, cuts)
	case *TaskResultAck:
		return appendTaskID(dst, m.Task)
	case *TaskCancel:
		return appendTaskID(dst, m.Task)
	case *ServerSync:
		dst = appendNode(dst, m.From)
		dst = appendSlice(dst, m.Tasks, appendTask)
		return appendSlice(dst, m.Running, appendTask)
	case *ServerSyncReply:
		dst = appendSlice(dst, m.Resend, appendTask)
		return appendSlice(dst, m.Drop, appendTask)
	case *ReplicaUpdate:
		dst = appendNode(dst, m.From)
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = binary.AppendUvarint(dst, m.Round)
		dst = appendEach(dst, m.Jobs, cuts, appendJobBody)
		return appendSlice(dst, m.MaxSeqs, appendSessionMax)
	case *ReplicaAck:
		dst = appendNode(dst, m.From)
		dst = binary.AppendUvarint(dst, m.Epoch)
		return binary.AppendUvarint(dst, m.Round)
	default:
		panic("proto: appendMessageBody: unregistered message type " + msg.Kind())
	}
}

// readMessageBody decodes the body for a kind byte, into a struct from
// the kind's pool and its lists into the arrays that struct kept.
// Unknown kinds set the reader's error (a peer speaking a newer protocol
// revision).
func readMessageBody(r *binReader, kind uint8) Message {
	switch kind {
	case kindSubmit:
		return msgPools.submit.fill(Submit{Call: r.call(), Service: r.str(), Params: r.payload(),
			ExecTime: r.dur(), ResultSize: int(r.varint())})
	case kindSubmitAck:
		return msgPools.submitAck.fill(SubmitAck{Call: r.call(), MaxSeq: r.seq()})
	case kindPoll:
		m := msgPools.poll.get()
		m.User, m.Session, m.Ack = UserID(r.str()), SessionID(r.uvarint()), r.seq()
		m.Have = readSlice(r, m.Have, (*binReader).seq)
		return m
	case kindResults:
		m := msgPools.results.get()
		m.User, m.Session = UserID(r.str()), SessionID(r.uvarint())
		m.Results = readSlice(r, m.Results, readResult)
		return m
	case kindSyncRequest:
		return msgPools.syncRequest.fill(SyncRequest{User: UserID(r.str()), Session: SessionID(r.uvarint()),
			MaxSeq: r.seq(), HaveLog: r.bool()})
	case kindSyncReply:
		m := msgPools.syncReply.get()
		m.User, m.Session, m.MaxSeq, m.Collected = UserID(r.str()), SessionID(r.uvarint()), r.seq(), r.seq()
		m.Known = readSlice(r, m.Known, (*binReader).seq)
		return m
	case kindHeartbeat:
		return msgPools.heartbeat.fill(Heartbeat{From: r.node(), Role: Role(r.u8()),
			Capacity: int(r.varint()), WantWork: r.bool()})
	case kindHeartbeatAck:
		m := msgPools.heartbeatAck.get()
		m.From = r.node()
		m.Tasks = readSlice(r, m.Tasks, readAssignment)
		m.Coordinators = readSlice(r, m.Coordinators, (*binReader).node)
		return m
	case kindTaskResult:
		return msgPools.taskResult.fill(TaskResult{From: r.node(), Task: r.task(), Output: r.payload(),
			Err: r.str()})
	case kindTaskResultAck:
		return msgPools.taskResultAck.fill(TaskResultAck{Task: r.task()})
	case kindTaskCancel:
		return msgPools.taskCancel.fill(TaskCancel{Task: r.task()})
	case kindServerSync:
		m := msgPools.serverSync.get()
		m.From = r.node()
		m.Tasks = readSlice(r, m.Tasks, (*binReader).task)
		m.Running = readSlice(r, m.Running, (*binReader).task)
		return m
	case kindServerSyncReply:
		m := msgPools.serverSyncReply.get()
		m.Resend = readSlice(r, m.Resend, (*binReader).task)
		m.Drop = readSlice(r, m.Drop, (*binReader).task)
		return m
	case kindReplicaUpdate:
		m := msgPools.replicaUpdate.get()
		m.From, m.Epoch, m.Round = r.node(), r.uvarint(), r.uvarint()
		m.Jobs = readSlice(r, m.Jobs, readJobBody)
		m.MaxSeqs = readSlice(r, m.MaxSeqs, readSessionMax)
		return m
	case kindReplicaAck:
		return msgPools.replicaAck.fill(ReplicaAck{From: r.node(), Epoch: r.uvarint(), Round: r.uvarint()})
	default:
		r.fail()
		return nil
	}
}
