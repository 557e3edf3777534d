package msglog

import (
	"rpcv/internal/node"
	"rpcv/internal/proto"
)

// Entry is one logged message as a disk holds it.
type Entry struct {
	// Key is the entry's disk key — for a Log, the part after its prefix.
	Key string
	// Data is the serialized message to resend on synchronization, or
	// its header when the payload is in Blob (proto.EncodeLogged).
	Data []byte
	// Blob is the message's payload when it is large enough to be
	// stored beside the header, under blobPrefix+key: the slice the
	// message itself carries, shared with the disk and never copied.
	Blob []byte
}

// blobPrefix opens the key of every payload blob: the entry's own key
// follows, so listing a log's prefix never lists a blob.
const blobPrefix = "blob/"

// EntryOf encodes msg as the entry to log under key.
func EntryOf(key string, msg proto.Message) Entry {
	data, blob := proto.EncodeLogged(msg)
	return Entry{Key: key, Data: data, Blob: blob}
}

// Message decodes the logged message, its payload joined and shared. An
// entry whose payload is missing or short fails with proto.ErrCorrupt:
// it was not logged.
func (e Entry) Message(dec *proto.Decoder) (proto.Message, error) {
	return dec.DecodeLogged(e.Data, e.Blob)
}

// stageBlob stages e's payload ahead of the header. *failed is set once
// the write is known to have failed: by the time stageBlob returns on a
// disk that does not batch, and before the header's own outcome is
// known on one that does (staging order is commit order and callback
// order).
func stageBlob(env node.Env, e Entry, failed *error) {
	node.WriteAsync(env.Disk(), blobPrefix+e.Key, e.Blob, func(err error) {
		if err != nil {
			*failed = err
			env.Logf("msglog: write payload of %s: %v", e.Key, err)
		}
	})
}

// Stage logs e under e.Key on env's disk without waiting: payload
// first, header behind it — one group commit where the disk batches,
// two synchronous writes where it does not — and done gets the outcome
// when the header's commit returns. A payload already known to have
// failed gets no header, and one that fails later fails the entry: a
// header without its payload is not logged.
func Stage(env node.Env, e Entry, done func(error)) {
	if e.Blob == nil {
		node.WriteAsync(env.Disk(), e.Key, e.Data, done)
		return
	}
	var blobErr error
	stageBlob(env, e, &blobErr)
	if blobErr != nil {
		done(blobErr)
		return
	}
	node.WriteAsync(env.Disk(), e.Key, e.Data, func(err error) {
		if err == nil {
			err = blobErr
		}
		done(err)
	})
}

// Write is Stage for a caller that waits: it returns when the header is
// durable, and the commit a batching disk makes it wait for is the one
// that takes the payload staged ahead of it.
func Write(env node.Env, e Entry) error {
	if e.Blob != nil {
		var blobErr error
		stageBlob(env, e, &blobErr)
		if blobErr != nil {
			return blobErr
		}
	}
	return env.Disk().Write(e.Key, e.Data)
}

// Load reads the entry under key, with its payload if one is stored
// beside it. Only a header has one: an entry that is whole costs no
// second key.
func Load(disk node.Disk, key string) (Entry, bool) {
	data, ok := disk.Read(key)
	if !ok {
		return Entry{}, false
	}
	e := Entry{Key: key, Data: data}
	if proto.IsLogHeader(data) {
		e.Blob, _ = disk.Read(blobPrefix + key)
	}
	return e, true
}

// Remove deletes the entry under key, staged where the disk batches:
// the payload and then the header, so that a crash between the two
// leaves a header Message refuses, never a payload nothing names. done
// gets the header's outcome; a payload whose delete is already known to
// have failed keeps its header, and the entry stays whole.
func Remove(env node.Env, key string, done func(error)) {
	if err := removeBlob(env, key); err != nil {
		done(err)
		return
	}
	node.DeleteAsync(env.Disk(), key, done)
}

// removeBlob deletes the payload stored beside the entry under key, if
// there is one, and reports a failure already known when it returns; a
// later one is logged, and Sweep makes up for it.
func removeBlob(env node.Env, key string) error {
	e, _ := Load(env.Disk(), key)
	if e.Blob == nil {
		return nil
	}
	var failed error
	node.DeleteAsync(env.Disk(), blobPrefix+key, func(err error) {
		if err != nil {
			failed = err
			env.Logf("msglog: delete payload of %s: %v", key, err)
		}
	})
	return failed
}

// Sweep deletes the payloads under prefix that no header names: what a
// crash between a payload's write and its header's left behind. Every
// owner of logged entries runs it over its prefix when it recovers.
func Sweep(env node.Env, prefix string) {
	disk := env.Disk()
	for _, k := range disk.Keys(blobPrefix + prefix) {
		if _, ok := disk.Read(k[len(blobPrefix):]); ok {
			continue
		}
		node.DeleteAsync(disk, k, func(err error) {
			if err != nil {
				env.Logf("msglog: delete stray payload %s: %v", k, err)
			}
		})
	}
}
