// Package store is the durable-store layer backing every node's stable
// storage (node.Disk) on the real runtime.
//
// There is one durable engine and one volatile one; which a node gets
// follows from whether it was given a directory (rt.Config.DiskDir):
//
//   - the WAL (OpenWAL): a segmented append-only write-ahead log with
//     group commit. A committer goroutine batches every Write/Delete
//     staged while the previous commit was in flight into one
//     write+fsync; callers block (or, via WriteAsync, are called back)
//     only when their batch's fsync completes. An in-memory index
//     serves reads; periodic snapshots plus segment compaction bound
//     recovery replay; every record is CRC-checked and a torn final
//     record is truncated on re-open. Group commit is what makes
//     pessimistic logging nearly as cheap as optimistic without
//     weakening its guarantee.
//   - Memory (NewMemory): volatile, for a node without a directory —
//     the simulator, most tests, throwaway clients.
//
// The one-fsynced-file-per-key "files" engine that preceded the WAL was
// removed once the conformance matrix had shown the two equivalent
// under every fault scenario; its per-operation disk cost — the paper's
// ~30% blocking-pessimistic overhead "dominated by disk access" (§4.1,
// figure 4) — is reproduced by the simulator's disk model
// (internal/msglog), not by an engine. OpenWAL still recognizes such a
// directory and refuses it: opening it as an empty WAL would look like
// data loss to a recovering node.
package store

import "rpcv/internal/node"

// Store is a durable key-value store: node.Disk plus the batch-aware
// contract (WriteAsync/DeleteAsync/Sync) and a lifecycle. Write and
// Delete are durable when they return; WriteAsync and DeleteAsync when
// their callback runs. Memory, which has nothing to batch, implements
// the staged calls as the synchronous ones followed by the callback.
//
// Store callbacks (the staged calls' done) may run on an engine-internal
// goroutine; the runtime layer (internal/rt) marshals them back onto
// the node's event loop before handing the store to a protocol
// handler.
type Store interface {
	node.BatchDisk

	// Close flushes staged writes and releases the store. The
	// directory's contents survive, as a crash-stop would leave them.
	Close() error
}
