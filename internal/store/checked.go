package store

import (
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"rpcv/internal/node"
)

// CheckedDisk wraps a node.Disk so that a breach of its ownership
// contract — a value modified after Write or WriteAsync took it, or
// after Read returned it — is reported instead of silently corrupting
// what the store holds. Engines no longer copy values, so nothing else
// would notice.
//
// The wrapper remembers, per key, the slice it last saw and a checksum
// of its bytes, and verifies the checksum whenever that slice comes
// past again: at Read, when a write or a delete — staged or not —
// replaces it, and, for every key at once, at Verify and Close. violation receives one line
// per breach; the race-detector builds of internal/rt and internal/sim
// (diskcheck_race.go) route every node's disk through here with a
// violation that panics, so `go test -race` checks the contract under
// every suite that boots a node.
//
// A value that reached the key some other way (another writer of the
// engine, a reopened directory) is a different slice: it is adopted, not
// flagged.
func CheckedDisk(inner node.Disk, violation func(msg string)) node.Disk {
	return newChecker(inner, violation)
}

// Checked is CheckedDisk for a Store. The result forwards the optional
// interface of inner that the runtime looks for (WAL stats).
func Checked(inner Store, violation func(msg string)) Store {
	cs := &checkedStore{checker: newChecker(inner, violation), st: inner}
	if _, ok := inner.(walStore); ok {
		return &checkedWAL{checkedStore: cs}
	}
	return cs
}

type checkedValue struct {
	val []byte
	sum uint32
}

type checker struct {
	inner     node.Disk
	violation func(string)

	mu   sync.Mutex
	seen map[string]checkedValue
}

func newChecker(inner node.Disk, violation func(string)) *checker {
	return &checker{inner: inner, violation: violation, seen: make(map[string]checkedValue)}
}

func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// verifyLocked reports key's remembered value if its bytes changed.
func (c *checker) verifyLocked(key, at string) {
	if e, ok := c.seen[key]; ok && crc32.ChecksumIEEE(e.val) != e.sum {
		c.violation(fmt.Sprintf("store: value of %q was modified after the store took ownership of it (noticed at %s)", key, at))
	}
}

// took records value as key's current slice, checking the one it
// replaces on its way out.
func (c *checker) took(key string, value []byte, at string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.verifyLocked(key, at)
	c.seen[key] = checkedValue{value, crc32.ChecksumIEEE(value)}
}

func (c *checker) Write(key string, value []byte) error {
	c.took(key, value, "Write")
	return c.inner.Write(key, value)
}

func (c *checker) Read(key string) ([]byte, bool) {
	v, ok := c.inner.Read(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		delete(c.seen, key)
		return nil, false
	}
	if e, known := c.seen[key]; known && sameSlice(e.val, v) {
		c.verifyLocked(key, "Read")
	} else {
		c.seen[key] = checkedValue{v, crc32.ChecksumIEEE(v)}
	}
	return v, true
}

func (c *checker) Delete(key string) error {
	c.gone(key, "Delete")
	return c.inner.Delete(key)
}

// gone checks key's remembered value on its way out and forgets it.
func (c *checker) gone(key, at string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.verifyLocked(key, at)
	delete(c.seen, key)
}

func (c *checker) Keys(prefix string) []string { return c.inner.Keys(prefix) }

// Verify checks every remembered value now.
func (c *checker) Verify(at string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.seen))
	for k := range c.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c.verifyLocked(k, at)
	}
}

// checkedStore adds the Store surface; st is checker.inner, as a Store.
type checkedStore struct {
	*checker
	st Store
}

func (c *checkedStore) WriteAsync(key string, value []byte, done func(error)) {
	c.took(key, value, "WriteAsync")
	c.st.WriteAsync(key, value, done)
}

func (c *checkedStore) DeleteAsync(key string, done func(error)) {
	c.gone(key, "DeleteAsync")
	c.st.DeleteAsync(key, done)
}

func (c *checkedStore) Sync() error { return c.st.Sync() }

func (c *checkedStore) Close() error {
	c.Verify("Close")
	return c.st.Close()
}

// walStore is what the runtime discovers on the wal engine.
type walStore interface {
	Store
	Stats() WALStats
}

type checkedWAL struct{ *checkedStore }

func (c *checkedWAL) Stats() WALStats { return c.st.(walStore).Stats() }
