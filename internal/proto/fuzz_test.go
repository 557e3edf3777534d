package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime/metrics"
	"testing"
	"testing/iotest"
)

// FuzzCodecRoundTrip throws arbitrary bytes at the binary decoders —
// storage blobs (message and job record) and the framed wire stream —
// and checks the properties the hardening promises: garbage never
// panics (it errors), a blob without the magic is ErrCorrupt to every
// storage decoder, and anything that does decode re-encodes to a stable
// fixed point (decode(encode(decode(x))) is byte-identical to
// encode(decode(x)), so rewritten logs never churn). Every input is also
// framed and read through WireDecoder's window, from a whole reader and
// a byte at a time: it must decode to what DecodeMessage makes of the
// same body, or fail where that fails. The seed corpus covers every
// message kind, a job record, wire frames, and messages with payloads
// past BlobMin whole and torn mid-payload, so `go test` alone exercises
// every decode path through this harness. Each payload and each struct
// a WireDecoder returned is released once compared, so later decodes,
// whole and a byte at a time, read into reused buffers and structs. A
// frame's decode allocates no more than decodeAllocBound, measured alone
// when the process-wide reading says otherwise.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, msg := range allMessages() {
		f.Add(EncodeMessage(msg))
	}
	f.Add(EncodeJob(&JobRecord{
		Call: CallID{User: "user-01", Session: 7, Seq: 42}, Service: "svc",
		Params: []byte{1, 2}, State: TaskFinished, Output: []byte{3}, Server: "server-000",
	}))
	// A full wire frame (length prefix + kind + from + body) and a few
	// malformed openers steer the fuzzer toward both decoders.
	hbFrame, err := AppendFrame(nil, "node-a", &Heartbeat{From: "node-a", Role: RoleServer, Capacity: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hbFrame)
	// A 64 KiB Submit, a HeartbeatAck with two 64 KiB tasks and a Results
	// with two outputs: as blobs and as frames, whole and torn inside the
	// first payload, which the window reads straight into its slice.
	for _, msg := range payloadMessages(64 << 10)[:3] {
		blob := EncodeMessage(msg)
		frame, err := AppendFrame(nil, "node-a", msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/4])
		f.Add(frame)
		f.Add(frame[:len(frame)/4])
	}
	f.Add(encodeJobHeader(&JobRecord{
		Call: CallID{User: "user-01", Session: 7, Seq: 43}, Service: "svc",
		Params: make([]byte, 9), State: TaskFinished, Output: []byte{3}, Server: "server-000",
	}, jobParams))
	logHeader, _ := EncodeLogged(&TaskResult{From: "server-000", Task: TaskID{Call: CallID{User: "user-01", Session: 7, Seq: 44}, Instance: 1},
		Output: make([]byte, BlobMin)})
	f.Add(logHeader)
	f.Add([]byte{binMagic})
	f.Add([]byte{binMagic, binVersion, kindSubmit})
	f.Add([]byte{0, 0, 0, 5, kindSubmit, 0})
	for _, kind := range retiredKinds { // openers that must stay errors
		f.Add([]byte{binMagic, binVersion, kind})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound fuzz memory; MaxFrame guards the real paths
		}
		var dec Decoder
		// The input as it came, before any steering: the wire frame, the
		// zero-length-prefixed seed and most of what the fuzzer invents
		// do not open with the magic and this codec version.
		_, errMsg := dec.DecodeMessage(data)
		_, errJob := dec.DecodeJob(data)
		_, errStored := dec.DecodeJobHeader(data, nil, nil)
		if len(data) < 2 || data[0] != binMagic || data[1] != binVersion {
			for _, err := range []error{errMsg, errJob, errStored} {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("a blob without the magic and version decoded to %v, want ErrCorrupt", err)
				}
			}
		}
		if msg, err := dec.DecodeMessage(withMagic(data)); err == nil {
			raw := EncodeMessage(msg)
			again, err := dec.DecodeMessage(raw)
			if err != nil {
				t.Fatalf("re-decode of valid message failed: %v", err)
			}
			if !bytes.Equal(raw, EncodeMessage(again)) {
				t.Fatalf("message encoding is not a fixed point")
			}
		}
		if rec, err := dec.DecodeJob(withJobMagic(data)); err == nil {
			raw := EncodeJob(rec)
			again, err := dec.DecodeJob(raw)
			if err != nil {
				t.Fatalf("re-decode of valid job failed: %v", err)
			}
			if !bytes.Equal(raw, EncodeJob(again)) {
				t.Fatalf("job encoding is not a fixed point")
			}
		}
		if named, lens, _, err := splitJobHeader(data); err == nil && named != 0 &&
			lens[0] <= 1<<20 && lens[1] <= 1<<20 { // bound fuzz memory
			// Beside payloads of the measured lengths a header decodes, and
			// must re-encode to a fixed point like everything else.
			if rec, err := dec.DecodeJobHeader(data, make([]byte, lens[0]), make([]byte, lens[1])); err == nil {
				raw := encodeJobHeader(rec, named)
				again, err := dec.DecodeJobHeader(raw, rec.Params, rec.Output)
				if err != nil || !bytes.Equal(raw, encodeJobHeader(again, named)) {
					t.Fatalf("job header encoding is not a fixed point (err %v)", err)
				}
			}
		}
		// A log header beside nothing is refused, never read as a
		// message without its payload; beside a payload of the length it
		// names it re-encodes to a fixed point.
		if msg, err := dec.DecodeLogged(data, nil); err == nil {
			if p := payloadOf(msg); data[2]&kindBare != 0 && len(*p) != 0 {
				t.Fatalf("a log header decoded without its payload into one of %d B", len(*p))
			}
		} else if len(data) >= 3 && data[2]&kindBare != 0 && dec.rd.err == nil && dec.rd.payloadLen <= 1<<20 {
			if msg, err := dec.DecodeLogged(data, make([]byte, dec.rd.payloadLen)); err == nil {
				if again, _ := EncodeLogged(msg); dec.rd.payloadLen >= BlobMin && !bytes.Equal(again, data) {
					t.Fatalf("log header encoding is not a fixed point")
				}
			}
		}
		// The input framed: the body a blob of it carries, behind a
		// frame's length, kind and sender.
		blob := withMagic(data)
		want, wantErr := dec.DecodeMessage(append([]byte{binMagic, binVersion}, blob[2:]...))
		frame := append(binary.BigEndian.AppendUint32(nil, 0), blob[2])
		frame = append(appendString(frame, "node-a"), blob[3:]...)
		binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
		for i, r := range readers(frame) {
			before := allocated()
			from, got, err := NewWireDecoder(r).Next()
			if grew := allocated() - before; grew > decodeAllocBound(len(frame)-4) {
				// The counter is the process's: measured again alone.
				if alone := decodeAllocated(frame, i); alone > decodeAllocBound(len(frame)-4) {
					t.Fatalf("decoding a %d B frame allocated %d B (%d B beside the rest of the process)", len(frame)-4, alone, grew)
				}
			}
			switch {
			case (err == nil) != (wantErr == nil):
				t.Fatalf("the frame decoded with error %v, the blob with %v", err, wantErr)
			case err == nil && (from != "node-a" || !reflect.DeepEqual(got, want)):
				t.Fatalf("the frame decoded to other values than the blob")
			}
			release(got) // the next reader's decode reads into it
		}

		// The input as a wire stream: drain frames until error or EOF,
		// from a whole reader and a byte at a time, which must agree. The
		// decoder must terminate without panicking whatever the bytes.
		whole, bytewise := drain(bytes.NewReader(data)), drain(iotest.OneByteReader(bytes.NewReader(data)))
		if !reflect.DeepEqual(whole, bytewise) {
			t.Fatalf("a stream decodes to %d frames read whole, %d read a byte at a time", len(whole), len(bytewise))
		}
		for _, fr := range whole {
			from, msg := fr.from, fr.msg
			// A frame that decoded was under MaxFrame, so re-framing
			// it cannot exceed the cap.
			raw, err := AppendFrame(nil, from, msg)
			if err != nil {
				t.Fatalf("re-frame of valid frame refused: %v", err)
			}
			wd2 := NewWireDecoder(bytes.NewReader(raw))
			from2, msg2, err := wd2.Next()
			if err != nil {
				t.Fatalf("re-decode of valid frame failed: %v", err)
			}
			again, err := AppendFrame(nil, from2, msg2)
			if err != nil || !bytes.Equal(raw, again) {
				t.Fatalf("frame encoding is not a fixed point (err %v)", err)
			}
			release(msg2)
		}
		for _, frames := range [][]wireFrame{whole, bytewise} {
			for _, fr := range frames {
				release(fr.msg)
			}
		}
	})
}

// release gives back the payloads of a message a WireDecoder returned,
// as a server does with a task's params, and its struct, as the runtime
// does for a node.Forgetter: the fuzzer's later decodes then read into
// buffers that held other bytes, and into structs that held other
// messages (and were poisoned since, in race builds).
func release(msg Message) {
	for _, p := range payloads(msg) {
		ReleasePayload(p)
	}
	ReleaseMessage(msg)
}

// readers reads b whole and a byte at a time: the window then fills at
// every offset a read can stop at.
func readers(b []byte) []io.Reader {
	return []io.Reader{bytes.NewReader(b), iotest.OneByteReader(bytes.NewReader(b))}
}

type wireFrame struct {
	from NodeID
	msg  Message
}

// drain decodes frames from r until the first error or EOF.
func drain(r io.Reader) []wireFrame {
	var out []wireFrame
	wd := NewWireDecoder(r)
	for {
		from, msg, err := wd.Next()
		if err != nil {
			return out
		}
		out = append(out, wireFrame{from, msg})
	}
}

// allocated reads how many bytes this process has allocated so far.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// decodeAllocated is what decoding frame allocates when nothing else in
// the process does: through readers(frame)[reader], the least of a few
// decodes counted by testing.AllocsPerRun, which holds GOMAXPROCS at 1
// while it runs them. The process-wide counter around one decode also
// counts what other goroutines allocate meanwhile — the fuzzing engine's,
// the collector's — and what the allocator books late, so a reading over
// the bound is only a suspicion until this one agrees.
func decodeAllocated(frame []byte, reader int) uint64 {
	least := uint64(math.MaxUint64)
	testing.AllocsPerRun(3, func() {
		r := readers(frame)[reader]
		before := allocated()
		_, msg, _ := NewWireDecoder(r).Next()
		least = min(least, allocated()-before)
		release(msg)
	})
	return least
}

// decodeAllocBound is the most decoding an n-byte frame may allocate:
// no length read inside a frame may size an allocation past the bytes
// the frame declared. Decoded elements outweigh their encodings — an
// empty node ID encodes to one byte and takes 16, twice over while
// its slice doubles — and the allocator counts by the span, so the
// bound is generous; an allocation sized by a corrupt length goes far
// past it.
func decodeAllocBound(n int) uint64 { return 128*uint64(n) + 256<<10 }

// withMagic steers fuzz data past the header check into the message
// decoder: data already carrying the magic passes through, anything
// else gets a valid blob header prepended.
func withMagic(data []byte) []byte {
	if len(data) >= 3 && data[0] == binMagic {
		return data
	}
	return append([]byte{binMagic, binVersion, kindSubmit}, data...)
}

// withJobMagic is withMagic for job-record blobs.
func withJobMagic(data []byte) []byte {
	if len(data) >= 3 && data[0] == binMagic {
		return data
	}
	return append([]byte{binMagic, binVersion, kindJobRecord}, data...)
}
