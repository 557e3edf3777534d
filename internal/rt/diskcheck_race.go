//go:build race

package rt

import "rpcv/internal/store"

// checkStore routes the runtime's store through store.Checked in
// race-detector builds: a handler (or a test) that modifies a value
// after handing it to the disk, or one the disk handed back, panics
// where the breach is noticed instead of corrupting the store. The
// race detector finds unsynchronized sharing; this finds the
// synchronized kind the node.Disk ownership contract forbids.
func checkStore(s store.Store) store.Store {
	return store.Checked(s, func(msg string) { panic(msg) })
}
