package proto

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"
)

func loggedFixtures(size int) []Message {
	call := CallID{User: "user-01", Session: 7, Seq: 42}
	payload := func(b byte) []byte {
		if size < 0 {
			return nil
		}
		return bytes.Repeat([]byte{b}, size)
	}
	return []Message{
		&Submit{Call: call, Service: "echo", Params: payload(0xA5), ExecTime: time.Second, ResultSize: 9, Deadline: time.Minute},
		&TaskResult{From: "server-000", Task: TaskID{Call: call, Instance: 2}, Output: payload(0x5A), Err: "boom", Exec: 3 * time.Millisecond},
	}
}

// Under the line an entry is the whole encoding, as every earlier build
// wrote it. From the line up it is a small header and the message's own
// payload slice, and the two together are byte for byte as long as the
// whole encoding — what the simulator's disk model charges for.
func TestLoggedEncodingSplitsAtBlobMin(t *testing.T) {
	for _, size := range []int{-1, 0, 64, BlobMin - 1, BlobMin, 64 << 10} {
		for _, msg := range loggedFixtures(size) {
			whole := EncodeMessage(msg)
			data, blob := EncodeLogged(msg)
			payload := *payloadOf(msg)
			if size < BlobMin {
				if blob != nil || !bytes.Equal(data, whole) {
					t.Fatalf("%s of %d B: not the whole encoding (blob %d B)", msg.Kind(), size, len(blob))
				}
			} else {
				if len(blob) != size || &blob[0] != &payload[0] {
					t.Fatalf("%s of %d B: blob is %d B, shares the message's slice %v", msg.Kind(), size, len(blob), len(blob) > 0 && &blob[0] == &payload[0])
				}
				if len(data) > 128 || len(data)+len(blob) != len(whole) {
					t.Fatalf("%s of %d B: header %d B + blob %d B, whole encoding %d B", msg.Kind(), size, len(data), len(blob), len(whole))
				}
				if slack := cap(data) - len(data); slack > 16 {
					t.Fatalf("%s: header of %d B carries %d spare", msg.Kind(), len(data), slack)
				}
				if _, err := DecodeMessage(data); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: DecodeMessage read a header as a whole message: %v", msg.Kind(), err)
				}
			}
			var dec Decoder
			back, err := dec.DecodeLogged(data, blob)
			if err != nil || !reflect.DeepEqual(back, msg) {
				t.Fatalf("%s of %d B: round trip: %v\n got %+v\nwant %+v", msg.Kind(), size, err, back, msg)
			}
			if p := *payloadOf(back); size >= BlobMin && &p[0] != &payload[0] {
				t.Fatalf("%s: decoding copied the payload", msg.Kind())
			}
			if *payloadOf(msg) == nil && size >= 0 {
				t.Fatalf("%s: encoding stripped the caller's message", msg.Kind())
			}
		}
	}
}

// A header is resent with exactly the bytes it was logged with or not
// at all.
func TestDecodeLoggedRefusesAHeaderWithoutItsPayload(t *testing.T) {
	for _, msg := range loggedFixtures(BlobMin) {
		data, blob := EncodeLogged(msg)
		bad := map[string][2][]byte{
			"missing payload":  {data, nil},
			"short payload":    {data, blob[:len(blob)/2]},
			"long payload":     {data, append(bytes.Clone(blob), 0)},
			"torn header":      {data[:len(data)/2], blob},
			"trailing garbage": {append(bytes.Clone(data), 0), blob},
			"kind with no payload": {
				append([]byte{binMagic, binVersion, kindTaskCancel | kindBare}, appendMessageBody(nil, &TaskCancel{})...), blob},
			"unknown kind": {[]byte{binMagic, binVersion, 0x7F | kindBare, 0}, blob},
		}
		for name, in := range bad {
			if got, err := new(Decoder).DecodeLogged(in[0], in[1]); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, %s: decoded to %+v, %v; want ErrCorrupt", msg.Kind(), name, got, err)
			}
		}
	}
	// A whole encoding ignores whatever lies beside it.
	small := loggedFixtures(8)[0]
	if back, err := new(Decoder).DecodeLogged(EncodeMessage(small), []byte("stray")); err != nil || !reflect.DeepEqual(back, small) {
		t.Fatalf("whole encoding beside a stray blob: %+v, %v", back, err)
	}
}

// frames returns a stream of Submit frames with params of the given sizes.
func frames(t *testing.T, sizes ...int) *bytes.Reader {
	t.Helper()
	var stream []byte
	for i, size := range sizes {
		stream = mustFrame(t, stream, "n", &Submit{Call: CallID{User: "u", Session: 1, Seq: RPCSeq(i + 1)}, Params: make([]byte, size)})
	}
	return bytes.NewReader(stream)
}

// A connection keeps its frame buffer across frames — unless one giant
// frame grew it past what PutBuffer would pool: then it lets go, and
// the next frame gets a buffer of its own size.
func TestWireDecoderLetsAGiantFrameBufferGo(t *testing.T) {
	dec := NewWireDecoder(frames(t, 2<<20, 64))
	for i := 0; i < 2; i++ {
		if _, _, err := dec.Next(); err != nil {
			t.Fatal(err)
		}
		if c := cap(dec.buf); c > maxPooledBuffer {
			t.Fatalf("after frame %d the decoder holds a %d B buffer", i+1, c)
		}
	}
	if c := cap(dec.buf); c == 0 || c > 4096 {
		t.Fatalf("buffer after the small frame: %d B", c)
	}

	dec = NewWireDecoder(frames(t, 64<<10, 64<<10, 64))
	if _, _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	first := &dec.buf[0]
	for i := 0; i < 2; i++ {
		if _, _, err := dec.Next(); err != nil {
			t.Fatal(err)
		}
		if &dec.buf[:1][0] != first {
			t.Fatalf("frame %d did not reuse the 64 KiB frames' buffer", i+2)
		}
	}
}

// A buffer an odd frame out grew — a reply that carried two payloads —
// gives way once roomyFrames payload-sized frames in a row have used
// under two thirds of it: which connections of a grid sit on a double
// buffer must not depend on when the odd frames came. Frames of two
// sizes taking turns go on sharing the larger one, and small frames in
// between (polls, heartbeats) count for nothing.
func TestWireDecoderSettlesAtItsUsualFrame(t *testing.T) {
	const one, two = 64 << 10, 128 << 10
	sizes := []int{one, two}
	for i := 0; i < roomyFrames; i++ {
		sizes = append(sizes, one, 64)
	}
	sizes = append(sizes, one)
	dec := NewWireDecoder(frames(t, sizes...))
	next := func() {
		t.Helper()
		if _, _, err := dec.Next(); err != nil {
			t.Fatal(err)
		}
	}
	next()
	next()
	grown := &dec.buf[0]
	if cap(dec.buf) < two {
		t.Fatalf("buffer after the double frame: %d B", cap(dec.buf))
	}
	for i := 0; i < 2*(roomyFrames-1); i++ {
		next()
		if &dec.buf[:1][0] != grown {
			t.Fatalf("let go after %d single frames, want %d", i/2+1, roomyFrames)
		}
	}
	next()
	if c := cap(dec.buf); c < one || c >= one+one/2 {
		t.Fatalf("buffer after %d single frames: %d B", roomyFrames, c)
	}
	settled := &dec.buf[0]
	next()
	next()
	if &dec.buf[:1][0] != settled {
		t.Fatal("the settled buffer was not reused")
	}

	sizes = sizes[:0]
	for i := 0; i < 2*roomyFrames; i++ {
		sizes = append(sizes, two, one, one)
	}
	dec = NewWireDecoder(frames(t, sizes...))
	next()
	grown = &dec.buf[0]
	for i := 1; i < len(sizes); i++ {
		next()
		if &dec.buf[:1][0] != grown {
			t.Fatalf("frame %d: frames of two sizes taking turns lost the larger buffer", i+1)
		}
	}
}
