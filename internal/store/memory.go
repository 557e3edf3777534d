package store

import (
	"sort"
	"strings"
	"sync"
)

// Memory is a volatile in-memory store (tests, throwaway clients).
// Every operation is immediately "durable" for as long as the process
// lives. It keeps the slices it is handed and hands them back (the
// node.Disk ownership contract): a write costs a map assignment, not a
// copy of the value.
type Memory struct {
	mu   sync.Mutex
	data map[string][]byte
}

var _ Store = (*Memory)(nil)

// NewMemory returns an empty volatile store.
func NewMemory() *Memory { return &Memory{data: make(map[string][]byte)} }

// Write implements Store.
func (m *Memory) Write(key string, value []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data[key] = value
	return nil
}

// WriteAsync implements Store: the write completes synchronously.
func (m *Memory) WriteAsync(key string, value []byte, done func(error)) {
	err := m.Write(key, value)
	if done != nil {
		done(err)
	}
}

// Read implements Store.
func (m *Memory) Read(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.data[key]
	return v, ok
}

// Delete implements Store.
func (m *Memory) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.data, key)
	return nil
}

// DeleteAsync implements Store: the delete completes synchronously.
func (m *Memory) DeleteAsync(key string, done func(error)) {
	err := m.Delete(key)
	if done != nil {
		done(err)
	}
}

// Keys implements Store.
func (m *Memory) Keys(prefix string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var keys []string
	for k := range m.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Sync implements Store (nothing is ever pending).
func (m *Memory) Sync() error { return nil }

// Close implements Store.
func (m *Memory) Close() error { return nil }

// Len returns the number of stored keys (test helper).
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.data)
}
