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
		&Submit{Call: call, Service: "echo", Params: payload(0xA5), ExecTime: time.Second, ResultSize: 9},
		&TaskResult{From: "server-000", Task: TaskID{Call: call, Instance: 2}, Output: payload(0x5A), Err: "boom"},
	}
}

// Under the line an entry is the whole encoding, as EncodeMessage writes
// it. From the line up it is a small header and the message's own
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
				append([]byte{binMagic, binVersion, kindTaskCancel | kindBare}, appendMessageBody(nil, &TaskCancel{}, nil)...), blob},
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
