// Package a seeds diskerr's analysistest suite: discarded durable-store
// errors flagged, handled and explicitly-ignored ones silent, and
// non-storage callees never matched; and staged writes and deletes
// whose completion error nobody can see.
package a

type fakeDisk struct{}

func (fakeDisk) Write(key string, val []byte) error { return nil }
func (fakeDisk) Read(key string) ([]byte, error)    { return nil, nil }
func (fakeDisk) Delete(key string) error            { return nil }
func (fakeDisk) Keys() ([]string, error)            { return nil, nil }

func (fakeDisk) WriteAsync(key string, val []byte, done func(err error)) {}
func (fakeDisk) DeleteAsync(key string, done func(err error))            {}

// DeleteAsync mimics node.DeleteAsync: the staged call for a caller
// that holds only a disk.
func DeleteAsync(d fakeDisk, key string, done func(err error)) { d.DeleteAsync(key, done) }

// open mimics store.OpenWAL: a constructor whose results include a
// disk-shaped type alongside an error.
func open(name string) (fakeDisk, error) { return fakeDisk{}, nil }

// notStorage returns an error but has no disk-shaped receiver or
// result: never diskerr's business.
func notStorage() error { return nil }

func dropped(d fakeDisk) {
	d.Write("k", nil)    // want `error returned by fakeDisk.Write is discarded`
	d.Delete("k")        // want `error returned by fakeDisk.Delete is discarded`
	open("wal")          // want `error returned by open is discarded`
	go d.Write("k", nil) // want `error returned by fakeDisk.Write is discarded`
	defer d.Delete("k")  // want `error returned by fakeDisk.Delete is discarded`
	notStorage()         // ok: not a storage callee
}

func handled(d fakeDisk) error {
	if err := d.Write("k", nil); err != nil {
		return err
	}
	// The documented opt-out: an explicit blank assignment.
	_ = d.Delete("k") // best-effort cleanup; the entry is already orphaned
	v, err := d.Read("k")
	_ = v
	return err
}

// notADisk has a WriteAsync but not the Disk quartet.
type notADisk struct{}

func (notADisk) WriteAsync(key string, val []byte, done func(error)) {}
func (notADisk) DeleteAsync(key string, done func(error))            {}

func asyncDropped(d fakeDisk, n notADisk) {
	d.WriteAsync("k", nil, nil)                // want `fakeDisk.WriteAsync with a nil done drops the write's error`
	d.WriteAsync("k", nil, func(error) {})     // want `fakeDisk.WriteAsync's done callback never reads its error`
	d.WriteAsync("k", nil, func(_ error) {})   // want `fakeDisk.WriteAsync's done callback never reads its error`
	d.WriteAsync("k", nil, func(err error) {}) // want `fakeDisk.WriteAsync's done callback never reads its error`
	d.WriteAsync("k", nil, func(err error) {   // want `fakeDisk.WriteAsync's done callback never reads its error`
		if err := notStorage(); err != nil { // shadows the parameter: still never read
			return
		}
	})
	n.WriteAsync("k", nil, nil) // ok: not a storage receiver

	d.DeleteAsync("k", nil)                // want `fakeDisk.DeleteAsync with a nil done drops the delete's error`
	d.DeleteAsync("k", func(error) {})     // want `fakeDisk.DeleteAsync's done callback never reads its error`
	d.DeleteAsync("k", func(err error) {}) // want `fakeDisk.DeleteAsync's done callback never reads its error: a failed durable delete must be handled`
	DeleteAsync(d, "k", nil)               // want `DeleteAsync with a nil done drops the delete's error`
	DeleteAsync(d, "k", func(error) {})    // want `DeleteAsync's done callback never reads its error`
	n.DeleteAsync("k", nil)                // ok: not a storage receiver
}

func asyncHandled(d fakeDisk, logged func(error)) {
	d.WriteAsync("k", nil, func(err error) {
		if err != nil {
			panic(err)
		}
	})
	d.WriteAsync("k", nil, func(err error) { logged(err) })
	d.WriteAsync("k", nil, logged) // a named callback is trusted
	d.DeleteAsync("k", func(err error) { logged(err) })
	DeleteAsync(d, "k", func(err error) {
		if err != nil {
			panic(err)
		}
	})
	DeleteAsync(d, "k", logged)
}
