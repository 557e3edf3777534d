package store

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// On-disk layout of the wal engine:
//
//	wal-00000001.seg   segment: a stream of CRC-framed records
//	wal-00000002.seg   (the highest-numbered segment is active)
//	snap-00000001.snap snapshot covering every segment id <= 1
//
// Record framing (little-endian):
//
//	u32 crc    IEEE CRC-32 over everything after this field
//	u8  kind   1 = put, 2 = delete
//	u32 keyLen
//	u32 valLen (0 for delete)
//	key bytes
//	val bytes
//
// A snapshot file is magic "RPCVSNP1", u32 count, count × (u32 keyLen,
// key, u32 valLen, val), u32 CRC-32 over everything after the magic.
// Snapshots are written to a .tmp file, fsynced and renamed, so a
// half-written snapshot never shadows an older valid one.
const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"

	recPut    = 1
	recDelete = 2

	// maxRecordSize bounds a single key+value against corrupt length
	// fields turning into giant allocations during replay.
	maxRecordSize = 1 << 30

	// maxKeptRecordBuf is the largest record buffer the committer keeps
	// for the next commit.
	maxKeptRecordBuf = 1 << 20
)

var snapMagic = [8]byte{'R', 'P', 'C', 'V', 'S', 'N', 'P', '1'}

// WALOptions tunes the wal engine. The zero value is production-sized;
// tests shrink the knobs to exercise rotation and snapshots quickly.
type WALOptions struct {
	// SegmentBytes rotates the active segment once it exceeds this
	// size. Default 4 MiB.
	SegmentBytes int64
	// SnapshotSegments takes a snapshot (and compacts away covered
	// segments) once this many sealed segments accumulate beyond the
	// last snapshot. Default 4 — recovery replays at most about
	// SnapshotSegments×SegmentBytes of log, the "snapshot interval".
	SnapshotSegments int
	// Logf receives recovery and compaction notices; nil discards.
	Logf func(format string, args ...any)
}

func (o *WALOptions) applyDefaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SnapshotSegments <= 0 {
		o.SnapshotSegments = 4
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// walOp is one staged operation awaiting the committer.
type walOp struct {
	kind byte // recPut, recDelete, or 0 for a Sync barrier
	key  string
	val  []byte
	done func(error)
}

// WAL is the group-commit write-ahead-log engine.
//
// Writes stage the operation, update the in-memory index (so reads
// observe them immediately) and wake the committer goroutine, which
// drains everything staged, appends it to the active segment in one
// write, fsyncs once, and only then completes the operations. Callers
// therefore pay one fsync per *batch*, not per operation — concurrent
// loggers share the disk's access floor, which is the engine-level fix
// for the paper's fig-4 blocking-pessimistic overhead.
//
// Values are never copied on the way in or out (the node.Disk ownership
// contract): the staged operation, the index and every Read share the
// one slice the writer handed over, and let go of it once its delete or
// overwrite has committed. A snapshot's frozen view is the exception:
// it streams out behind the writers, so it freezes a copy of the
// values (freezeLocked), and holds no writer's slice.
type WAL struct {
	dir string
	opt WALOptions

	mu     sync.Mutex
	index  map[string][]byte
	staged []walOp
	closed bool
	broken error // sticky fatal commit error; fails all later ops

	// Committer-owned arrays, kept across commits so that a commit
	// allocates nothing once they have grown to the usual batch: spare
	// becomes staged when a batch is taken and the batch, cleared, the
	// next spare; buf holds the batch's records on their way to the
	// segment.
	spare []walOp
	buf   []byte

	seg     *os.File // active segment (committer-owned after Open)
	segID   uint64
	segSize int64
	snapID  uint64 // segments <= snapID are covered by the snapshot

	snapshotting bool
	snapWG       sync.WaitGroup

	kick chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup

	// stats, guarded by mu.
	commits         uint64 // fsync batches
	committedOps    uint64 // operations made durable
	replayedRecords uint64 // records replayed by Open (after snapshot)
	snapshots       uint64 // snapshots taken since Open
}

var _ Store = (*WAL)(nil)

// WALStats reports durability and recovery counters.
type WALStats struct {
	// Commits is the number of fsync batches since Open; CommittedOps
	// the operations they covered. CommittedOps/Commits is the group-
	// commit amortization factor.
	Commits      uint64
	CommittedOps uint64
	// ReplayedRecords counts log records Open replayed on top of the
	// snapshot — the recovery work a restart paid.
	ReplayedRecords uint64
	// Snapshots counts snapshots taken since Open.
	Snapshots uint64
	// Segments is the number of live log segments not yet covered by a
	// snapshot — the replay work a crash right now would pay.
	Segments uint64
}

// Stats returns a snapshot of the counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		Commits:         w.commits,
		CommittedOps:    w.committedOps,
		ReplayedRecords: w.replayedRecords,
		Snapshots:       w.snapshots,
		Segments:        w.segID - w.snapID,
	}
}

// OpenWAL opens (creating if needed) a wal store rooted at dir,
// rebuilding the in-memory index from the newest valid snapshot plus
// every later segment. A torn final record — the signature of a crash
// mid-commit — is truncated away; corruption anywhere else fails Open.
// It refuses a directory holding the removed files engine's data, and
// creates nothing in it.
func OpenWAL(dir string, opt WALOptions) (*WAL, error) {
	opt.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := refuseForeign(dir); err != nil {
		return nil, err
	}
	w := &WAL{
		dir:   dir,
		opt:   opt,
		index: make(map[string][]byte),
		kick:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
	if err := w.recover(); err != nil {
		return nil, err
	}
	w.wg.Add(1)
	go w.committer()
	return w, nil
}

// isFilesFile recognizes the per-key layout of the files engine this
// build no longer has: <hex of the key>.log.
func isFilesFile(name string) bool {
	if !strings.HasSuffix(name, ".log") {
		return false
	}
	_, err := hex.DecodeString(strings.TrimSuffix(name, ".log"))
	return err == nil
}

// refuseForeign errors when dir holds files-engine data: opened as a
// WAL it would present an empty store to a recovering node, which is
// indistinguishable from data loss.
func refuseForeign(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if isFilesFile(e.Name()) {
			return fmt.Errorf("store: %s holds data of the files engine (%s), which was removed; refusing to open it as a wal", dir, e.Name())
		}
	}
	return nil
}

// syncDir fsyncs a directory, making a preceding rename or remove
// inside it crash-durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

// recover rebuilds index, segID and snapID from the directory.
func (w *WAL) recover() error {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	var segIDs, snapIDs []uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// Leftover of an interrupted snapshot; never renamed, so
			// never authoritative.
			_ = os.Remove(filepath.Join(w.dir, name))
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			if id, ok := parseSeqName(name, segPrefix, segSuffix); ok {
				segIDs = append(segIDs, id)
			}
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			if id, ok := parseSeqName(name, snapPrefix, snapSuffix); ok {
				snapIDs = append(snapIDs, id)
			}
		}
	}
	sort.Slice(segIDs, func(i, j int) bool { return segIDs[i] < segIDs[j] })
	sort.Slice(snapIDs, func(i, j int) bool { return snapIDs[i] > snapIDs[j] }) // newest first

	// Load the newest snapshot that validates; older ones are only
	// kept until compaction confirms their successor, so walking down
	// the list tolerates a crash between rename and cleanup. If
	// snapshots exist but NONE validates, refuse to open: the covered
	// segments are compacted away, so proceeding would present a
	// partial (or empty) store as if it were complete — silent data
	// loss, the exact failure refuseForeign guards against.
	loaded := len(snapIDs) == 0
	for _, id := range snapIDs {
		idx, err := loadSnapshot(w.snapPath(id))
		if err != nil {
			w.opt.Logf("store(wal): snapshot %d unreadable (%v), trying older", id, err)
			continue
		}
		w.index = idx
		w.snapID = id
		loaded = true
		break
	}
	if !loaded {
		return fmt.Errorf("store: wal %s: %d snapshot file(s) present but none readable; refusing to recover partial state", w.dir, len(snapIDs))
	}

	// Replay every segment after the snapshot, oldest first. Only the
	// final record of the final segment may be torn.
	for i, id := range segIDs {
		if id <= w.snapID {
			// Covered by the snapshot; compaction was interrupted
			// before removing it. Finish the job.
			_ = os.Remove(w.segPath(id))
			continue
		}
		last := i == len(segIDs)-1
		n, err := w.replaySegment(id, last)
		if err != nil {
			return err
		}
		w.replayedRecords += uint64(n)
	}

	// Reopen the highest segment for appending, or start a fresh one.
	if n := len(segIDs); n > 0 && segIDs[n-1] > w.snapID {
		w.segID = segIDs[n-1]
		f, err := os.OpenFile(w.segPath(w.segID), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		w.seg, w.segSize = f, st.Size()
		return nil
	}
	return w.openSegmentLocked(w.snapID + 1)
}

// replaySegment applies one segment's records to the index. When
// tolerateTail is set (final segment only), a torn or corrupt tail is
// truncated at the last good record instead of failing recovery: a
// crash between write and fsync legitimately leaves one.
func (w *WAL) replaySegment(id uint64, tolerateTail bool) (int, error) {
	path := w.segPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	applied, off := 0, 0
	for off < len(data) {
		kind, key, val, n, err := decodeRecord(data[off:])
		if err != nil {
			if !tolerateTail {
				return applied, fmt.Errorf("store: wal segment %s corrupt at offset %d: %w", path, off, err)
			}
			w.opt.Logf("store(wal): truncating torn tail of %s at offset %d (%v)", path, off, err)
			if terr := os.Truncate(path, int64(off)); terr != nil {
				return applied, terr
			}
			if terr := syncFile(path); terr != nil {
				return applied, terr
			}
			break
		}
		switch kind {
		case recPut:
			w.index[key] = val
		case recDelete:
			delete(w.index, key)
		}
		off += n
		applied++
	}
	return applied, nil
}

// ---------------------------------------------------------------------
// Store interface
// ---------------------------------------------------------------------

// Write implements Store: it stages the put and blocks until the batch
// holding it is fsynced.
func (w *WAL) Write(key string, value []byte) error {
	return w.wait(walOp{kind: recPut, key: key, val: value})
}

// wait stages op and blocks until the committer completes it, on a
// pooled waiter: a synchronous operation allocates no channel and no
// callback of its own.
func (w *WAL) wait(op walOp) error {
	s := syncWaiters.Get().(*syncWaiter)
	op.done = s.done
	w.stage(op)
	err := <-s.ch
	syncWaiters.Put(s)
	return err
}

// syncWaiter is what a synchronous operation waits on: done, bound once,
// hands the commit's outcome to ch.
type syncWaiter struct {
	ch   chan error
	done func(error)
}

var syncWaiters = sync.Pool{New: func() any {
	s := &syncWaiter{ch: make(chan error, 1)}
	s.done = func(err error) { s.ch <- err }
	return s
}}

// WriteAsync implements Store: it stages the put and returns; done
// runs (possibly on the committer goroutine) after the batch fsync.
func (w *WAL) WriteAsync(key string, value []byte, done func(error)) {
	w.stage(walOp{kind: recPut, key: key, val: value, done: done})
}

// Delete implements Store: durable like Write (a delete record is
// appended and fsynced), so a crash cannot resurrect the key.
func (w *WAL) Delete(key string) error {
	return w.wait(walOp{kind: recDelete, key: key})
}

// DeleteAsync implements Store: it stages the delete and returns; done
// runs (possibly on the committer goroutine) after the batch fsync.
func (w *WAL) DeleteAsync(key string, done func(error)) {
	w.stage(walOp{kind: recDelete, key: key, done: done})
}

// Read implements Store, serving from the in-memory index: staged
// writes are visible immediately (read-your-writes), durability is
// what the commit guards.
func (w *WAL) Read(key string) ([]byte, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	v, ok := w.index[key]
	return v, ok
}

// Keys implements Store.
func (w *WAL) Keys(prefix string) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var keys []string
	for k := range w.index {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Sync implements Store: it rides a no-op barrier through the commit
// pipeline, returning once everything staged before it is durable.
func (w *WAL) Sync() error {
	return w.wait(walOp{})
}

// Close implements Store: flushes staged operations, stops the
// committer and releases the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.quit)
	w.wg.Wait()     // committer drains the final batch before exiting
	w.snapWG.Wait() // an in-flight snapshot finishes writing
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	if w.seg != nil {
		err = w.seg.Close()
		w.seg = nil
	}
	return err
}

// stage queues one operation for the committer, applying it to the
// index immediately.
func (w *WAL) stage(op walOp) {
	w.mu.Lock()
	if w.closed {
		err := w.broken
		if err == nil {
			err = errors.New("store: wal closed")
		}
		w.mu.Unlock()
		if op.done != nil {
			op.done(err)
		}
		return
	}
	// A broken log applies nothing, but it still queues the op: the
	// committer fails it behind the ones staged before it, so that
	// completions keep their staging order even then.
	if w.broken == nil {
		switch op.kind {
		case recPut:
			w.index[op.key] = op.val
		case recDelete:
			delete(w.index, op.key)
		}
	}
	w.staged = append(w.staged, op)
	w.mu.Unlock()
	w.kickCommitter()
}

// kickCommitter wakes the committer if it is not already signalled.
func (w *WAL) kickCommitter() {
	select {
	case w.kick <- struct{}{}:
	default: // committer already signalled
	}
}

// ---------------------------------------------------------------------
// Committer
// ---------------------------------------------------------------------

func (w *WAL) committer() {
	defer w.wg.Done()
	for {
		select {
		case <-w.kick:
			w.commitBatch()
		case <-w.quit:
			// Drain whatever was staged before Close, then stop.
			w.commitBatch()
			return
		}
	}
}

// commitBatch drains the staged queue, appends every record in one
// write, fsyncs once and completes the operations. It then rotates
// and/or snapshots when thresholds are crossed.
func (w *WAL) commitBatch() {
	w.mu.Lock()
	batch := w.staged
	w.staged, w.spare = w.spare, nil
	broken := w.broken
	w.mu.Unlock()

	if len(batch) == 0 {
		w.spare = batch
		return
	}
	if broken != nil {
		// Ops staged in the window before a failing commit set the
		// sticky error must fail too: the segment may end in a partial
		// record, and anything appended after it would be truncated
		// away by the next recovery despite a successful fsync.
		w.complete(batch, broken)
		return
	}

	buf := w.buf[:0]
	records := 0
	for _, op := range batch {
		if op.kind == 0 {
			continue // Sync barrier: nothing to append
		}
		buf = appendRecord(buf, op.kind, op.key, op.val)
		records++
	}
	if cap(buf) <= maxKeptRecordBuf {
		w.buf = buf
	} else {
		w.buf = nil // one bulky batch does not pin its size for good
	}

	var err error
	if records > 0 {
		if _, werr := w.seg.Write(buf); werr != nil {
			err = werr
		} else if serr := w.seg.Sync(); serr != nil {
			err = serr
		}
	}

	w.mu.Lock()
	if err != nil {
		// A failed append leaves the segment in an unknown state; fail
		// everything after it rather than pretending to be durable.
		w.broken = fmt.Errorf("store: wal commit: %w", err)
		err = w.broken
	} else {
		w.segSize += int64(len(buf))
		w.commits++
		w.committedOps += uint64(records)
	}
	w.mu.Unlock()

	w.complete(batch, err)
	if err == nil {
		w.maybeRotate()
	}
}

// complete reports err to every operation of batch, in staging order,
// and keeps the batch's array, cleared of its values and callbacks, as
// the next spare.
func (w *WAL) complete(batch []walOp, err error) {
	for _, op := range batch {
		if op.done != nil {
			op.done(err)
		}
	}
	clear(batch)
	w.spare = batch[:0]
}

// maybeRotate seals the active segment once it exceeds SegmentBytes
// and opens the next one; crossing the snapshot threshold then kicks
// off a background snapshot + compaction.
func (w *WAL) maybeRotate() {
	w.mu.Lock()
	if w.segSize < w.opt.SegmentBytes {
		w.mu.Unlock()
		return
	}
	old := w.seg
	if err := w.openSegmentLocked(w.segID + 1); err != nil {
		// Keep appending to the old segment; rotation retries next
		// batch.
		w.seg = old
		w.opt.Logf("store(wal): rotate: %v", err)
		w.mu.Unlock()
		return
	}
	_ = old.Close()
	sealed := w.segID - 1 - w.snapID // sealed segments not yet covered
	due := sealed >= uint64(w.opt.SnapshotSegments) && !w.snapshotting
	var (
		idx  map[string][]byte
		upto uint64
	)
	if due {
		// Freeze the snapshot's view under the lock. The copy may
		// include operations staged but not yet committed; their
		// records land in segments > upto, which replay over the
		// snapshot idempotently, so the combined state is consistent.
		w.snapshotting = true
		upto = w.segID - 1
		idx = w.freezeLocked()
	}
	w.mu.Unlock()
	if due {
		w.snapWG.Add(1)
		go w.writeSnapshot(idx, upto)
	}
}

// freezeLocked copies the index for a snapshot: the keys, and the
// values into one array of the view's own. The snapshot streams out on
// a goroutine of its own, while the writers go on; a value whose delete
// commits meanwhile is its writer's again, to reuse (node.Release), and
// the view must not read the bytes the array holds next. Caller holds
// mu.
func (w *WAL) freezeLocked() map[string][]byte {
	total := 0
	for _, v := range w.index {
		total += len(v)
	}
	vals := make([]byte, 0, total)
	idx := make(map[string][]byte, len(w.index))
	for k, v := range w.index {
		at := len(vals)
		vals = append(vals, v...)
		idx[k] = vals[at:len(vals):len(vals)]
	}
	return idx
}

// openSegmentLocked creates and opens segment id as the active one.
// Caller holds mu.
func (w *WAL) openSegmentLocked(id uint64) error {
	f, err := os.OpenFile(w.segPath(id), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	// The new segment must itself survive a crash before anything in
	// it matters; syncing the directory here makes its entry durable.
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.seg = f
	w.segID = id
	w.segSize = 0
	return nil
}

// writeSnapshot persists idx as the snapshot covering segments <=
// upto, then compacts: older snapshots and covered segments are
// removed. Runs off the committer so writes continue into newer
// segments while the snapshot streams out.
func (w *WAL) writeSnapshot(idx map[string][]byte, upto uint64) {
	defer w.snapWG.Done()
	defer func() {
		w.mu.Lock()
		w.snapshotting = false
		w.mu.Unlock()
	}()

	path := w.snapPath(upto)
	tmp := path + ".tmp"
	if err := writeSnapshotFile(tmp, idx); err != nil {
		w.opt.Logf("store(wal): snapshot %d: %v", upto, err)
		_ = os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		w.opt.Logf("store(wal): snapshot %d: %v", upto, err)
		_ = os.Remove(tmp)
		return
	}
	if err := syncDir(w.dir); err != nil {
		w.opt.Logf("store(wal): snapshot %d: %v", upto, err)
		return
	}

	w.mu.Lock()
	prev := w.snapID
	w.snapID = upto
	w.snapshots++
	w.mu.Unlock()

	// Compaction: everything the new snapshot covers is dead weight.
	// Removal order does not matter for correctness — recovery skips
	// segments <= snapID and walks snapshots newest-first.
	if prev > 0 {
		_ = os.Remove(w.snapPath(prev))
	}
	for id := prev + 1; id <= upto; id++ {
		_ = os.Remove(w.segPath(id))
	}
	// Also reap any still-older leftovers from interrupted compactions.
	if entries, err := os.ReadDir(w.dir); err == nil {
		for _, e := range entries {
			if id, ok := parseSeqName(e.Name(), segPrefix, segSuffix); ok && id <= upto {
				_ = os.Remove(filepath.Join(w.dir, e.Name()))
			}
			if id, ok := parseSeqName(e.Name(), snapPrefix, snapSuffix); ok && id < upto {
				_ = os.Remove(filepath.Join(w.dir, e.Name()))
			}
		}
	}
	_ = syncDir(w.dir)
	w.opt.Logf("store(wal): snapshot through segment %d (%d keys), compacted", upto, len(idx))
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

func (w *WAL) segPath(id uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("%s%08d%s", segPrefix, id, segSuffix))
}

func (w *WAL) snapPath(id uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("%s%08d%s", snapPrefix, id, snapSuffix))
}

// parseSeqName extracts the numeric id out of prefix<number>suffix.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if mid == "" {
		return 0, false
	}
	var id uint64
	for _, c := range mid {
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + uint64(c-'0')
	}
	return id, true
}

// appendRecord encodes one record onto buf.
func appendRecord(buf []byte, kind byte, key string, val []byte) []byte {
	var hdr [13]byte // crc + kind + keyLen + valLen
	hdr[4] = kind
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(val)))
	start := len(buf)
	buf = append(buf, hdr[:]...)
	buf = append(buf, key...)
	buf = append(buf, val...)
	crc := crc32.ChecksumIEEE(buf[start+4:])
	binary.LittleEndian.PutUint32(buf[start:start+4], crc)
	return buf
}

// decodeRecord parses the record at the head of data, returning its
// total encoded length.
func decodeRecord(data []byte) (kind byte, key string, val []byte, n int, err error) {
	if len(data) < 13 {
		return 0, "", nil, 0, io.ErrUnexpectedEOF
	}
	wantCRC := binary.LittleEndian.Uint32(data[0:4])
	kind = data[4]
	keyLen := binary.LittleEndian.Uint32(data[5:9])
	valLen := binary.LittleEndian.Uint32(data[9:13])
	if kind != recPut && kind != recDelete {
		return 0, "", nil, 0, fmt.Errorf("bad record kind %d", kind)
	}
	if uint64(keyLen)+uint64(valLen) > maxRecordSize {
		return 0, "", nil, 0, fmt.Errorf("record too large (%d+%d)", keyLen, valLen)
	}
	n = 13 + int(keyLen) + int(valLen)
	if len(data) < n {
		return 0, "", nil, 0, io.ErrUnexpectedEOF
	}
	if crc32.ChecksumIEEE(data[4:n]) != wantCRC {
		return 0, "", nil, 0, errors.New("checksum mismatch")
	}
	key = string(data[13 : 13+keyLen])
	val = append([]byte(nil), data[13+int(keyLen):n]...)
	if kind == recDelete {
		val = nil
	}
	return kind, key, val, n, nil
}

// writeSnapshotFile serializes idx to path with an fsync.
func writeSnapshotFile(path string, idx map[string][]byte) error {
	keys := make([]string, 0, len(idx))
	for k := range idx {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	body := make([]byte, 0, 4096)
	var scratch [4]byte
	binary.LittleEndian.PutUint32(scratch[:], uint32(len(keys)))
	body = append(body, scratch[:]...)
	for _, k := range keys {
		binary.LittleEndian.PutUint32(scratch[:], uint32(len(k)))
		body = append(body, scratch[:]...)
		body = append(body, k...)
		binary.LittleEndian.PutUint32(scratch[:], uint32(len(idx[k])))
		body = append(body, scratch[:]...)
		body = append(body, idx[k]...)
	}
	binary.LittleEndian.PutUint32(scratch[:], crc32.ChecksumIEEE(body))

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(snapMagic[:]); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(scratch[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadSnapshot parses a snapshot file into a fresh index.
func loadSnapshot(path string) (map[string][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+8 || string(data[:len(snapMagic)]) != string(snapMagic[:]) {
		return nil, errors.New("bad snapshot header")
	}
	body := data[len(snapMagic) : len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, errors.New("snapshot checksum mismatch")
	}
	idx := make(map[string][]byte)
	count := binary.LittleEndian.Uint32(body[:4])
	off := 4
	for i := uint32(0); i < count; i++ {
		if off+4 > len(body) {
			return nil, io.ErrUnexpectedEOF
		}
		keyLen := int(binary.LittleEndian.Uint32(body[off : off+4]))
		off += 4
		if off+keyLen+4 > len(body) {
			return nil, io.ErrUnexpectedEOF
		}
		key := string(body[off : off+keyLen])
		off += keyLen
		valLen := int(binary.LittleEndian.Uint32(body[off : off+4]))
		off += 4
		if off+valLen > len(body) {
			return nil, io.ErrUnexpectedEOF
		}
		idx[key] = append([]byte(nil), body[off:off+valLen]...)
		off += valLen
	}
	if off != len(body) {
		return nil, errors.New("snapshot trailing data")
	}
	return idx, nil
}

// syncFile fsyncs one file by path (used after tail truncation).
func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
