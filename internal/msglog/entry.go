package msglog

import (
	"bytes"
	"fmt"
	"strings"

	"rpcv/internal/fifo"
	"rpcv/internal/node"
	"rpcv/internal/proto"
)

// Shelf is where one owner keeps its entries on a disk: an entry named
// name has its header under Headers+name — the entry's key — and the
// i-th payload it names (bit i of proto.NamedPayloads) under
// Blobs+name+Suffixes[i].
type Shelf struct {
	Headers, Blobs string
	Suffixes       []string // at most len(Entry{}.Blobs)
}

// Key is the key of the entry named name: its header's.
func (s Shelf) Key(name string) string { return s.Headers + name }

// name is the name of the entry under key.
func (s Shelf) name(key string) string { return key[len(s.Headers):] }

// Messages is the shelf of every message log: an entry's key is its
// whole disk key, and its one payload is under "blob/"+key, so listing
// a log's prefix never lists a blob.
var Messages = Shelf{Blobs: "blob/", Suffixes: []string{""}}

// Entry is one entry as a disk holds it.
type Entry struct {
	// Key is the entry's key: its header's on the disk (Shelf.Key,
	// Log.Key). The owner builds it once per entry and keeps it with the
	// entry's state in memory, so writing, rewriting and removing the
	// entry never build it again.
	Key string
	// Data is the serialized message or job record, or its header when
	// it names payloads (proto.EncodeLogged, proto.EncodeJobHeader).
	Data []byte
	// Blobs are the payloads the header names, in the shelf's order (nil:
	// not named): the slices the message or record itself carries, shared
	// with the disk and never copied.
	Blobs [2][]byte
}

// EntryOf encodes msg as the entry to log under key, a key of its shelf.
func EntryOf(key string, msg proto.Message) Entry {
	data, blob := proto.EncodeLogged(msg)
	return Entry{Key: key, Data: data, Blobs: [2][]byte{blob}}
}

// Message decodes the logged message, its payload joined and shared. An
// entry whose payload is missing or short fails with proto.ErrCorrupt:
// it was not logged.
func (e Entry) Message(dec *proto.Decoder) (proto.Message, error) {
	return dec.DecodeLogged(e.Data, e.Blobs[0])
}

// PayloadError is the failure of the write or the delete of an entry's
// Index-th payload, as distinct from its header's.
type PayloadError struct {
	Index int
	Err   error
}

func (e *PayloadError) Error() string { return fmt.Sprintf("payload %d: %v", e.Index, e.Err) }
func (e *PayloadError) Unwrap() error { return e.Err }

// Stage stores e on env's disk without waiting: each payload whose key
// does not hold those bytes yet — once, however often the header is
// rewritten — then the header, then the deletes of the payloads the
// header it replaces named and it does not. A payload write already
// known to have failed stages no header: Stage returns that
// *PayloadError and never calls done. Otherwise done gets the header's
// outcome, or a payload's failure — a header without its payload is not
// stored.
func (s Shelf) Stage(env node.Env, e Entry, done func(error)) error {
	failed, err := s.stageBlobs(env, e)
	if err != nil {
		return err
	}
	disk := env.Disk()
	old, _ := disk.Read(e.Key)
	if failed == nil {
		node.WriteAsync(disk, e.Key, e.Data, done)
	} else {
		node.WriteAsync(disk, e.Key, e.Data, func(err error) {
			if err == nil {
				err = *failed
			}
			done(err)
		})
	}
	// A failure is logged there; Sweep makes up for it.
	_, _ = s.removeBlobs(env, s.name(e.Key), proto.NamedPayloads(old)&^proto.NamedPayloads(e.Data))
	return nil
}

// Write is Stage for a caller that waits, and for an entry its key does
// not hold yet: it returns when the header is durable, and the commit a
// batching disk makes it wait for is the one that takes the payloads
// staged ahead of it.
func (s Shelf) Write(env node.Env, e Entry) error {
	if _, err := s.stageBlobs(env, e); err != nil {
		return err
	}
	return env.Disk().Write(e.Key, e.Data)
}

// stageBlobs stages the payloads of e whose keys do not hold them. It
// returns where the first of their failures is recorded when reported
// (nil: it staged none), and one reported already.
func (s Shelf) stageBlobs(env node.Env, e Entry) (failed *error, err error) {
	for i, blob := range e.Blobs {
		if blob == nil {
			continue
		}
		key := s.Blobs + s.name(e.Key) + s.Suffixes[i]
		if held, ok := env.Disk().Read(key); ok && bytes.Equal(held, blob) {
			continue
		}
		if failed == nil {
			failed = new(error)
		}
		f := failed
		node.WriteAsync(env.Disk(), key, blob, func(err error) {
			if err != nil && *f == nil {
				*f = &PayloadError{Index: i, Err: err}
			}
		})
		if *f != nil {
			return nil, *f
		}
	}
	return failed, nil
}

// Load reads the entry named name with the payloads its header names —
// a recovery read, which builds the entry's key; a payload that is
// missing is nil, and the entry's decoder refuses it.
func (s Shelf) Load(disk node.Disk, name string) (Entry, bool) {
	key := s.Key(name)
	data, ok := disk.Read(key)
	if !ok {
		return Entry{}, false
	}
	e := Entry{Key: key, Data: data}
	named := proto.NamedPayloads(data)
	for i, suffix := range s.Suffixes {
		if named&(1<<i) != 0 {
			e.Blobs[i], _ = disk.Read(s.Blobs + name + suffix)
		}
	}
	return e, true
}

// Remove deletes the entry under key, staged where the disk batches: the
// payloads its header names and then the header, all at once — staging
// order is commit order, so a crash in between leaves a header its
// decoder refuses, never a payload nothing names. done gets the header's
// outcome, or a payload's failure: a nil says the whole entry is gone
// from the disk. A payload whose delete is already known to have failed
// keeps the header: Remove returns that failure and never calls done, so
// that done, bound once by an owner that removes many entries, completes
// them in the order they were removed.
func (s Shelf) Remove(env node.Env, key string, done func(error)) error {
	data, _ := env.Disk().Read(key)
	failed, err := s.removeBlobs(env, s.name(key), proto.NamedPayloads(data))
	if err != nil {
		return err
	}
	if failed == nil {
		node.DeleteAsync(env.Disk(), key, done)
		return nil
	}
	node.DeleteAsync(env.Disk(), key, func(err error) {
		if err == nil {
			err = *failed
		}
		done(err)
	})
	return nil
}

// Remover removes entries from a shelf with no callback per entry: the
// completion of every delete it stages is one callback, bound once, over
// a queue of the removals staged — a disk completes its writes and
// deletes in the order they were staged. failed hears of each entry
// whose delete failed, which stays on the disk.
type Remover struct {
	env    node.Env
	shelf  Shelf
	failed func(key string, err error)
	staged fifo.Queue[removal]
	done   func(error)
}

// removal is one entry's removal staged: its key, and the payload given
// back once it has gone through.
type removal struct {
	key  string
	give []byte
}

// NewRemover returns a Remover of shelf's entries on env's disk.
func NewRemover(env node.Env, shelf Shelf, failed func(key string, err error)) *Remover {
	r := &Remover{env: env, shelf: shelf, failed: failed}
	r.done = r.removed
	return r
}

// Remove stages the removal of the entry under key (Shelf.Remove). give,
// unless nil, is a payload the entry held and its owner is done with —
// the message's own slice, which the disk shares (node.Disk's ownership
// contract): it goes back to the env (node.Release) once the whole entry
// is gone from the disk, and never when the removal fails, since the
// disk may then still hold it.
func (r *Remover) Remove(key string, give []byte) {
	r.staged.Push(removal{key: key, give: give})
	if err := r.shelf.Remove(r.env, key, r.done); err != nil {
		r.failed(r.staged.Unpush().key, err)
	}
}

// removed completes the oldest removal staged.
func (r *Remover) removed(err error) {
	rm := r.staged.Pop()
	if err != nil {
		r.failed(rm.key, err)
		return
	}
	if rm.give != nil {
		node.Release(r.env, rm.give)
	}
}

// removeBlobs deletes, of the payloads in named, those the disk holds
// for the entry named name. It returns where a later failure of theirs
// is recorded when it staged any (nil: none), and a failure already
// known; every failure is also logged, and Sweep makes up for it.
func (s Shelf) removeBlobs(env node.Env, name string, named uint8) (failed *error, err error) {
	if named == 0 {
		return nil, nil
	}
	for i, suffix := range s.Suffixes {
		if named&(1<<i) == 0 {
			continue
		}
		blob := s.Blobs + name + suffix
		if _, ok := env.Disk().Read(blob); !ok {
			continue
		}
		if failed == nil {
			failed = new(error)
		}
		f := failed
		node.DeleteAsync(env.Disk(), blob, func(err error) {
			if err != nil {
				if *f == nil {
					*f = &PayloadError{Index: i, Err: err}
				}
				env.Logf("msglog: delete payload %s: %v", blob, err)
			}
		})
		if *f != nil {
			return nil, *f
		}
	}
	return failed, nil
}

// Sweep deletes the payloads under Blobs+prefix that no header names —
// what a crash left before a header, or after one that stopped naming
// them. Every owner runs it over its entries when it recovers.
func (s Shelf) Sweep(env node.Env, prefix string) {
	disk := env.Disk()
blobs:
	for _, k := range disk.Keys(s.Blobs + prefix) {
		for i, suffix := range s.Suffixes {
			if key, ok := strings.CutSuffix(k[len(s.Blobs):], suffix); ok {
				if data, _ := disk.Read(s.Headers + key); proto.NamedPayloads(data)&(1<<i) != 0 {
					continue blobs
				}
			}
		}
		node.DeleteAsync(disk, k, func(err error) {
			if err != nil {
				env.Logf("msglog: delete stray payload %s: %v", k, err)
			}
		})
	}
}
