package proto

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"unsafe"
)

// payloadMessages are the messages that carry payloads across the wire,
// with payloads of the given sizes: a Submit, a HeartbeatAck with two
// tasks, a Results with two outputs and a TaskResult, each with its
// bytes filled so that a payload read into the wrong place shows.
func payloadMessages(sizes ...int) []Message {
	call := CallID{User: "user-01", Session: 7, Seq: 42}
	payload := func(i int) []byte {
		b := make([]byte, sizes[i%len(sizes)])
		for j := range b {
			b[j] = byte(i*7 + j)
		}
		return b
	}
	return []Message{
		&Submit{Call: call, Service: "echo", Params: payload(0)},
		&HeartbeatAck{From: "coord-01", Tasks: []TaskAssignment{
			{Task: TaskID{Call: call, Instance: 1}, Service: "echo", Params: payload(1)},
			{Task: TaskID{Call: call, Instance: 2}, Service: "echo", Params: payload(2)},
		}, Coordinators: []NodeID{"coord-01"}},
		&Results{User: "user-01", Session: 7, Results: []Result{
			{Call: call, Output: payload(3), Server: "server-000"},
			{Call: call, Output: payload(4), Err: "boom", Server: "server-001"},
		}},
		&TaskResult{From: "server-000", Task: TaskID{Call: call, Instance: 1}, Output: payload(5)},
	}
}

// payloads lists a decoded message's payload fields.
func payloads(msg Message) [][]byte {
	switch m := msg.(type) {
	case *Submit:
		return [][]byte{m.Params}
	case *TaskResult:
		return [][]byte{m.Output}
	case *HeartbeatAck:
		var out [][]byte
		for _, t := range m.Tasks {
			out = append(out, t.Params)
		}
		return out
	case *Results:
		var out [][]byte
		for _, r := range m.Results {
			out = append(out, r.Output)
		}
		return out
	}
	return nil
}

// overlaps reports whether a's and b's arrays share a byte.
func overlaps(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}

// stream frames msgs one after another.
func stream(t *testing.T, msgs []Message) []byte {
	t.Helper()
	var out []byte
	for _, m := range msgs {
		out = mustFrame(t, out, "node-a", m)
	}
	return out
}

// A connection keeps no buffer over BlobMin, whatever it carried: frames
// of 64 B, 64 KiB, 1 MiB and two 64 KiB payloads each leave the decoder
// with its window alone, and the window is never larger than BlobMin.
func TestWireDecoderHoldsNoBufferOverBlobMin(t *testing.T) {
	var msgs []Message
	for _, size := range []int{64, 64 << 10, 1 << 20} {
		msgs = append(msgs, payloadMessages(size)...)
	}
	for _, r := range readers(stream(t, msgs)) {
		dec := NewWireDecoder(r)
		for i, want := range msgs {
			_, got, err := dec.Next()
			if err != nil {
				t.Fatalf("frame %d (%s): %v", i, want.Kind(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("frame %d (%s) decoded to other values", i, want.Kind())
			}
			if c := cap(dec.win); c > BlobMin {
				t.Fatalf("after frame %d (%s, payloads of %d B) the decoder holds a %d B buffer", i, want.Kind(), len(payloads(want)[0]), c)
			}
			if c := cap(dec.rd.buf); c > BlobMin {
				t.Fatalf("after frame %d (%s) the decoder's reader holds a %d B buffer", i, want.Kind(), c)
			}
		}
		if _, _, err := dec.Next(); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
	}
}

// Every payload of BlobMin or more comes out in an array of its own,
// exactly its length: it shares bytes with neither the decoder's window
// nor another payload, so a message retained keeps nothing else alive.
func TestWireDecoderGivesEachPayloadItsOwnArray(t *testing.T) {
	msgs := append(payloadMessages(BlobMin, 64<<10), payloadMessages(BlobMin-1, 1<<20)...)
	dec := NewWireDecoder(bytes.NewReader(stream(t, msgs)))
	var seen [][]byte
	for i := range msgs {
		_, got, err := dec.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		for _, p := range payloads(got) {
			if len(p) < BlobMin {
				continue
			}
			if len(p) != cap(p) {
				t.Fatalf("frame %d: a %d B payload has capacity %d", i, len(p), cap(p))
			}
			if overlaps(p, dec.win) {
				t.Fatalf("frame %d: a %d B payload shares the decoder's window", i, len(p))
			}
			for _, q := range seen {
				if overlaps(p, q) {
					t.Fatalf("frame %d: a %d B payload shares its array with another", i, len(p))
				}
			}
			seen = append(seen, p)
		}
	}
	if len(seen) != 9 {
		t.Fatalf("%d payloads of BlobMin or more, want 9", len(seen))
	}
}

// A batch of Frames writes AppendFrame's bytes, frame for frame, without
// copying a large payload into its scratch buffer; after Reset it holds
// no payload and no payload-sized buffer, and a steady batch allocates
// nothing.
func TestFramesWriteAppendFramesBytesAndKeepNoPayload(t *testing.T) {
	msgs := append(allMessages(), payloadMessages(64, BlobMin, 64<<10)...)
	var f Frames
	for round := 0; round < 2; round++ {
		f.AppendPreface()
		want := append([]byte(nil), FramePreface[:]...)
		for _, m := range msgs {
			if err := f.Append("node-a", m); err != nil {
				t.Fatal(err)
			}
			want = mustFrame(t, want, "node-a", m)
		}
		if c := cap(f.scratch); c >= BlobMin {
			t.Fatalf("round %d: the scratch buffer grew to %d B: a payload was copied into it", round, c)
		}
		var got bytes.Buffer
		if n, err := f.WriteTo(&got); err != nil || n != int64(len(want)) {
			t.Fatalf("round %d: WriteTo = %d, %v; want %d bytes", round, n, err, len(want))
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("round %d: the batch's bytes differ from AppendFrame's", round)
		}
		f.Reset()
		if len(f.scratch) != 0 || len(f.cuts) != 0 || len(f.out) != 0 {
			t.Fatalf("round %d: Reset left %d B, %d cuts, %d buffers", round, len(f.scratch), len(f.cuts), len(f.out))
		}
		for _, c := range f.cuts[:cap(f.cuts)] {
			if c.b != nil {
				t.Fatalf("round %d: the batch still references a %d B payload", round, len(c.b))
			}
		}
		for _, b := range f.vec[:cap(f.vec)] {
			if b != nil {
				t.Fatalf("round %d: the write's buffers still reference %d B", round, len(b))
			}
		}
	}

	big := payloadMessages(64 << 10)
	if n := testing.AllocsPerRun(50, func() {
		for _, m := range big {
			if err := f.Append("node-a", m); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
		f.Reset()
	}); n != 0 {
		t.Fatalf("a steady batch allocates %.1f times", n)
	}
}

// Frames refuses a message over MaxFrame as AppendFrame does, and the
// batch goes on as if it had never been offered.
func TestFramesRefuseOversized(t *testing.T) {
	var f Frames
	small := &SubmitAck{Call: CallID{User: "u", Session: 1, Seq: 2}}
	if err := f.Append("n", small); err != nil {
		t.Fatal(err)
	}
	half := make([]byte, MaxFrame/2)
	big := &HeartbeatAck{From: "c", Tasks: []TaskAssignment{{Params: half}, {Params: half}}}
	if err := f.Append("n", big); err == nil {
		t.Fatal("oversized frame accepted")
	}
	for _, c := range f.cuts[:cap(f.cuts)] {
		if c.b != nil {
			t.Fatal("the refused message's payloads are still in the batch")
		}
	}
	if err := f.Append("n", small); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := f.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if want := mustFrame(t, mustFrame(t, nil, "n", small), "n", small); !bytes.Equal(got.Bytes(), want) {
		t.Fatal("the batch around a refused message is not its neighbours' frames")
	}
}
