package proto

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzCodecRoundTrip throws arbitrary bytes at the binary decoders —
// storage blobs (message and job record) and the framed wire stream —
// and checks the properties the hardening promises: garbage never
// panics (it errors), a blob without the magic is ErrCorrupt to every
// storage decoder, and anything that does decode re-encodes to a stable
// fixed point (decode(encode(decode(x))) is byte-identical to
// encode(decode(x)), so rewritten logs never churn). The seed corpus
// covers every message kind, a job record and a wire frame, so `go
// test` alone exercises every decode path through this harness.
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
	f.Add(encodeJobHeader(&JobRecord{
		Call: CallID{User: "user-01", Session: 7, Seq: 43}, Service: "svc",
		Params: make([]byte, 9), State: TaskFinished, Output: []byte{3}, Server: "server-000",
	}, jobParams))
	logHeader, _ := EncodeLogged(&TaskResult{From: "server-000", Task: TaskID{Call: CallID{User: "user-01", Session: 7, Seq: 44}, Instance: 1},
		Output: make([]byte, BlobMin), Exec: 5})
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
		// do not open with the magic.
		_, errMsg := dec.DecodeMessage(data)
		_, errJob := dec.DecodeJob(data)
		_, errStored := dec.DecodeJobHeader(data, nil, nil)
		if len(data) == 0 || data[0] != binMagic {
			for _, err := range []error{errMsg, errJob, errStored} {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("a blob without the magic decoded to %v, want ErrCorrupt", err)
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
		// The framed wire path: drain frames until error or EOF. The
		// decoder must terminate without panicking whatever the bytes.
		wd := NewWireDecoder(bytes.NewReader(data))
		for {
			from, msg, err := wd.Next()
			if err != nil {
				break
			}
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
		}
	})
}

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
