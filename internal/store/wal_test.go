package store

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func openTestWAL(t *testing.T, dir string, opt WALOptions) *WAL {
	t.Helper()
	w, err := OpenWAL(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Close is idempotent, so tests that close explicitly (to assert
	// the flush error or reopen the directory) are unaffected.
	t.Cleanup(func() { _ = w.Close() })
	return w
}

// TestWALRoundTrip covers the basic Disk contract: write, read-your-
// writes, delete, prefix-sorted Keys, and survival across re-open.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	if err := w.Write("msglog/2", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := w.Write("msglog/1", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Write("other/x", []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := w.Write("msglog/1", []byte("a2")); err != nil {
		t.Fatal(err) // overwrite
	}
	if err := w.Delete("msglog/2"); err != nil {
		t.Fatal(err)
	}
	if err := w.Delete("msglog/absent"); err != nil {
		t.Fatal(err) // absent delete is a no-op
	}
	if v, ok := w.Read("msglog/1"); !ok || string(v) != "a2" {
		t.Fatalf("Read = %q, %v", v, ok)
	}
	if _, ok := w.Read("msglog/2"); ok {
		t.Fatal("deleted key readable")
	}
	if got := w.Keys("msglog/"); len(got) != 1 || got[0] != "msglog/1" {
		t.Fatalf("Keys = %v", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery rebuilds the same state from the log.
	w2 := openTestWAL(t, dir, WALOptions{})
	if v, ok := w2.Read("msglog/1"); !ok || string(v) != "a2" {
		t.Fatalf("recovered Read = %q, %v", v, ok)
	}
	if _, ok := w2.Read("msglog/2"); ok {
		t.Fatal("deleted key resurrected by recovery")
	}
	if got := w2.Keys(""); len(got) != 2 {
		t.Fatalf("recovered Keys = %v", got)
	}
}

// TestWALGroupCommit proves the headline property: concurrent writers
// share fsyncs. 64 writers × 8 writes each from 64 goroutines must
// complete in far fewer commits than operations.
func TestWALGroupCommit(t *testing.T) {
	w := openTestWAL(t, t.TempDir(), WALOptions{})
	const writers, each = 64, 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				key := fmt.Sprintf("k/%03d/%d", i, j)
				if err := w.Write(key, []byte("v")); err != nil {
					t.Errorf("write %s: %v", key, err)
				}
			}
		}(i)
	}
	wg.Wait()
	st := w.Stats()
	if st.CommittedOps != writers*each {
		t.Fatalf("committed %d ops, want %d", st.CommittedOps, writers*each)
	}
	if st.Commits >= st.CommittedOps {
		t.Fatalf("no batching: %d commits for %d ops", st.Commits, st.CommittedOps)
	}
	t.Logf("group commit: %d ops in %d fsyncs (%.1fx amortization)",
		st.CommittedOps, st.Commits, float64(st.CommittedOps)/float64(st.Commits))
}

// TestWALAsyncWrite checks WriteAsync completes with durability and
// preserves read-your-writes before the callback.
func TestWALAsyncWrite(t *testing.T) {
	w := openTestWAL(t, t.TempDir(), WALOptions{})
	if err := w.Write("seed", []byte("s")); err != nil {
		t.Fatal(err)
	}
	const n = 100
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("a/%03d", i)
		w.WriteAsync(key, []byte("v"), func(err error) { errs <- err })
		if _, ok := w.Read(key); !ok {
			t.Fatalf("staged write %s not readable", key)
		}
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
}

// A group commit allocates nothing of its own: once the committer's
// arrays have grown to the usual batch, a staged write and the commit
// that makes it durable cost the log no allocation.
func TestWALCommitAllocatesNothing(t *testing.T) {
	w := openTestWAL(t, t.TempDir(), WALOptions{})
	val := []byte("a 64-byte value, as the coordinator's job headers roughly are....")
	errs := make(chan error, 1)
	done := func(err error) { errs <- err }
	write := func() {
		w.WriteAsync("coord/job/u/1/1", val, done)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for range 10 {
		write()
	}
	if n := testing.AllocsPerRun(100, write); n != 0 {
		t.Fatalf("a staged write and its commit allocate %v times, want 0", n)
	}
}

// TestWALTornTailTruncated is the crash-window edge: a torn final
// record (partial write, crc mismatch) is truncated on recovery and
// every earlier entry survives.
func TestWALTornTailTruncated(t *testing.T) {
	for _, tear := range []string{"partial-record", "garbage-crc"} {
		t.Run(tear, func(t *testing.T) {
			dir := t.TempDir()
			w := openTestWAL(t, dir, WALOptions{})
			for i := 0; i < 10; i++ {
				if err := w.Write(fmt.Sprintf("k/%02d", i), []byte("payload")); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			seg := filepath.Join(dir, "wal-00000001.seg")
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			switch tear {
			case "partial-record":
				// A record written but cut mid-way by the crash.
				torn := appendRecord(nil, recPut, "k/torn", bytes.Repeat([]byte("x"), 100))
				data = append(data, torn[:len(torn)-30]...)
			case "garbage-crc":
				// Bytes hit the platter scrambled.
				torn := appendRecord(nil, recPut, "k/torn", []byte("value"))
				torn[0] ^= 0xFF // corrupt the crc
				data = append(data, torn...)
			}
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}

			w2 := openTestWAL(t, dir, WALOptions{})
			if got := len(w2.Keys("k/")); got != 10 {
				t.Fatalf("recovered %d keys, want 10", got)
			}
			if _, ok := w2.Read("k/torn"); ok {
				t.Fatal("torn record surfaced as data")
			}
			// The tail is gone from disk too: a third open replays
			// cleanly without re-truncating.
			if err := w2.Write("k/after", []byte("y")); err != nil {
				t.Fatal(err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			w3 := openTestWAL(t, dir, WALOptions{})
			if _, ok := w3.Read("k/after"); !ok {
				t.Fatal("post-truncation write lost")
			}
		})
	}
}

// TestWALCorruptSealedSegmentFails: corruption anywhere but the final
// segment's tail is not a crash signature — recovery must refuse
// rather than silently drop committed data.
func TestWALCorruptSealedSegmentFails(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{SegmentBytes: 256, SnapshotSegments: 1000})
	for i := 0; i < 40; i++ {
		if err := w.Write(fmt.Sprintf("k/%02d", i), bytes.Repeat([]byte("x"), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("want ≥2 segments, got %v", segs)
	}
	// Flip a byte in the middle of the FIRST (sealed) segment.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(dir, WALOptions{}); err == nil {
		t.Fatal("recovery accepted a corrupt sealed segment")
	}
}

// TestWALSnapshotCompactionBoundsReplay drives enough writes through
// tiny segments to force snapshots, then asserts (a) a restart replays
// at most one snapshot interval of log and (b) no data is lost.
func TestWALSnapshotCompactionBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	opt := WALOptions{SegmentBytes: 512, SnapshotSegments: 2}
	w := openTestWAL(t, dir, opt)
	const n = 400
	val := bytes.Repeat([]byte("v"), 48)
	for i := 0; i < n; i++ {
		if err := w.Write(fmt.Sprintf("k/%04d", i%50), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Snapshots == 0 {
		t.Fatal("no snapshot was ever taken")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Compaction keeps the directory bounded: segments past the
	// snapshot interval are gone.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	// One snapshot interval plus the active segment and rotation slack.
	if len(segs) > opt.SnapshotSegments+2 {
		t.Fatalf("compaction left %d segments: %v", len(segs), segs)
	}

	w2 := openTestWAL(t, dir, opt)
	if got := len(w2.Keys("k/")); got != 50 {
		t.Fatalf("recovered %d keys, want 50", got)
	}
	// Replay work is bounded by one snapshot interval of log, not the
	// full history: the records per segment ≈ 512/(13+6+48) ≈ 8, so
	// (SnapshotSegments+2) segments can hold at most ~3 dozen records
	// — far below the 400 written. Allow generous slack.
	replayBound := uint64((opt.SnapshotSegments + 2) * (int(opt.SegmentBytes) / 60))
	if st2 := w2.Stats(); st2.ReplayedRecords > replayBound {
		t.Fatalf("restart replayed %d records, want ≤ %d (one snapshot interval)",
			st2.ReplayedRecords, replayBound)
	}
}

// TestWALSnapshotConcurrentWrites hammers writes from several
// goroutines while tiny thresholds force snapshots mid-stream, then
// verifies nothing is lost across recovery — the snapshot freeze and
// the live index never diverge.
func TestWALSnapshotConcurrentWrites(t *testing.T) {
	dir := t.TempDir()
	opt := WALOptions{SegmentBytes: 256, SnapshotSegments: 1}
	w := openTestWAL(t, dir, opt)
	const writers, each = 8, 60
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%d/%03d", g, i)
				if err := w.Write(key, []byte(strings.Repeat("x", 32))); err != nil {
					t.Errorf("write %s: %v", key, err)
				}
				if i%10 == 9 { // interleave deletes with snapshotting
					if err := w.Delete(fmt.Sprintf("w%d/%03d", g, i-5)); err != nil {
						t.Errorf("delete: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := w.Stats(); st.Snapshots == 0 {
		t.Fatal("thresholds never triggered a snapshot under load")
	}
	want := w.Keys("")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openTestWAL(t, dir, opt)
	got := w2.Keys("")
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key %d: recovered %q, want %q", i, got[i], want[i])
		}
	}
}

// TestWALRefusesUnreadableSnapshots: once compaction has removed the
// segments a snapshot covers, a store whose every snapshot fails
// validation must refuse to open — proceeding would present a partial
// (or empty) key set as if it were the complete recovered state.
func TestWALRefusesUnreadableSnapshots(t *testing.T) {
	dir := t.TempDir()
	opt := WALOptions{SegmentBytes: 128, SnapshotSegments: 1}
	w := openTestWAL(t, dir, opt)
	for i := 0; i < 100; i++ {
		if err := w.Write(fmt.Sprintf("k/%02d", i%10), []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) == 0 {
		t.Fatal("no snapshot to corrupt")
	}
	for _, s := range snaps {
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xFF // break the checksum
		if err := os.WriteFile(s, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenWAL(dir, opt); err == nil {
		t.Fatal("recovery accepted a store whose only snapshots are unreadable")
	}
}

// filesEngineDir returns a directory as the removed files engine left
// one: a single <hex of the key>.log per key.
func filesEngineDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	name := hex.EncodeToString([]byte("coord/job/1")) + ".log"
	if err := os.WriteFile(filepath.Join(dir, name), []byte("rec"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestWALRefusesFilesDirectory: a directory of per-key files is data
// this build cannot read. Opening it as a wal would present an empty
// store to a recovering node, so OpenWAL fails — saying why — and
// leaves the directory exactly as it found it.
func TestWALRefusesFilesDirectory(t *testing.T) {
	dir := filesEngineDir(t)
	_, err := OpenWAL(dir, WALOptions{})
	if err == nil {
		t.Fatal("OpenWAL accepted a files-engine directory")
	}
	if !strings.Contains(err.Error(), "files engine") || !strings.Contains(err.Error(), "removed") {
		t.Fatalf("the refusal does not say the files engine was removed: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("the refused open left %d entries in the directory, want the one it found", len(entries))
	}
	// A stray .log that is not hex is not the engine's: no refusal.
	stray := t.TempDir()
	if err := os.WriteFile(filepath.Join(stray, "server.log"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	openTestWAL(t, stray, WALOptions{})
}

// TestWALClosedStoreFails: operations after Close fail loudly instead
// of pretending durability.
func TestWALClosedStoreFails(t *testing.T) {
	w := openTestWAL(t, t.TempDir(), WALOptions{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write("k", []byte("v")); err == nil {
		t.Fatal("Write on closed wal succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
}

// TestWALSnapshotSurvivesAlone: after compaction removes every
// segment's predecessor, a store whose only history is snapshot + tail
// still recovers fully (the recovery path that starts from snapID+1).
func TestWALSnapshotSurvivesAlone(t *testing.T) {
	dir := t.TempDir()
	opt := WALOptions{SegmentBytes: 128, SnapshotSegments: 1}
	w := openTestWAL(t, dir, opt)
	for i := 0; i < 100; i++ {
		if err := w.Write(fmt.Sprintf("k/%02d", i%10), []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openTestWAL(t, dir, opt)
	if got := len(w2.Keys("k/")); got != 10 {
		t.Fatalf("recovered %d keys, want 10", got)
	}
	if v, ok := w2.Read("k/09"); !ok || string(v) != "0123456789abcdef" {
		t.Fatalf("Read after snapshot-only recovery = %q, %v", v, ok)
	}
}

// A snapshot's view is frozen before a delete commits and streamed out
// after it. By then the writer has its array back with the delete
// (node.Release) and has written other bytes into it: the snapshot still
// holds the bytes the key had when the view was frozen.
func TestWALSnapshotKeepsItsBytesAfterTheDelete(t *testing.T) {
	w := openTestWAL(t, t.TempDir(), WALOptions{})
	val := bytes.Repeat([]byte{0xa5}, 64<<10)
	want := append([]byte(nil), val...)
	if err := w.Write("blob/x", val); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	view := w.freezeLocked()
	w.mu.Unlock()
	if err := w.Delete("blob/x"); err != nil {
		t.Fatal(err)
	}
	for i := range val {
		val[i] = 0x5a
	}
	path := filepath.Join(t.TempDir(), "snap")
	if err := writeSnapshotFile(path, view); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded["blob/x"]; !bytes.Equal(got, want) {
		t.Fatalf("the snapshot holds %d bytes starting %x, want the %d frozen bytes of 0xa5", len(got), got[:min(len(got), 4)], len(want))
	}
}
