package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// allMessages returns one populated instance of every protocol message.
// Every type kindOf knows must appear here (and vice versa): the round
// trips below turn a message missing its encoder or decoder arm into a
// test failure instead of a panic or a corrupt frame on a live
// connection.
func allMessages() []Message {
	call := CallID{User: "user-01", Session: 7, Seq: 42}
	task := TaskID{Call: call, Instance: 3}
	return []Message{
		&Submit{Call: call, Service: "svc", Params: []byte{1, 2}, ExecTime: time.Second, ResultSize: 8},
		&SubmitAck{Call: call, MaxSeq: 42},
		&Poll{User: "user-01", Session: 7, Ack: 40, Have: []RPCSeq{42, 43, 47}},
		&Results{User: "user-01", Session: 7, Results: []Result{{Call: call, Output: []byte{9}, Err: "e", Server: "server-000"}}},
		&SyncRequest{User: "user-01", Session: 7, MaxSeq: 42, HaveLog: true},
		&SyncReply{User: "user-01", Session: 7, MaxSeq: 42, Collected: 40, Known: []RPCSeq{41, 42}},
		&Heartbeat{From: "server-000", Role: RoleServer, Capacity: 2, WantWork: true},
		&HeartbeatAck{From: "coord-00", Tasks: []TaskAssignment{{Task: task, Service: "svc", Params: []byte{5}}}, Coordinators: []NodeID{"coord-00"}},
		&TaskResult{From: "server-000", Task: task, Output: []byte{6}, Err: "x"},
		&TaskResultAck{Task: task},
		&TaskCancel{Task: task},
		&ServerSync{From: "server-000", Tasks: []TaskID{task}, Running: []TaskID{task}},
		&ServerSyncReply{Resend: []TaskID{task}, Drop: []TaskID{task}},
		&ReplicaUpdate{From: "coord-00", Epoch: 2, Round: 5, Jobs: []JobRecord{
			{Call: call, Service: "svc", State: TaskFinished, Output: []byte{7}},
			{Call: call, Service: "svc", Params: []byte{8}, ExecTime: time.Second, State: TaskOngoing, Instance: 2},
		}, MaxSeqs: []SessionMax{{User: "user-01", Session: 7, MaxSeq: 42, Collected: 40}}},
		&ReplicaAck{From: "coord-01", Epoch: 2, Round: 5},
	}
}

// TestBinaryRoundTripEveryMessage pushes every message kind through
// the storage encoding and requires a structurally identical value
// back — including the nil/empty slice distinction, which the +1 count
// scheme preserves.
func TestBinaryRoundTripEveryMessage(t *testing.T) {
	var dec Decoder // reused: the interning path must not corrupt values
	for _, msg := range allMessages() {
		raw := EncodeMessage(msg)
		if raw[0] != binMagic {
			t.Fatalf("%s: blob does not start with the magic byte", msg.Kind())
		}
		back, err := dec.DecodeMessage(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", msg.Kind(), err)
		}
		if !reflect.DeepEqual(msg, back) {
			t.Errorf("%s: round trip mismatch:\n sent %#v\n got  %#v", msg.Kind(), msg, back)
		}
	}
}

// TestBinaryRoundTripCoversEveryMessageType holds the allMessages
// sample the round trips run over to the decoder's own list of kinds:
// no two entries share a type, so a copy-paste duplicate cannot mask a
// missing one, and every kind byte readMessageBody accepts decodes to
// a type the sample contains.
func TestBinaryRoundTripCoversEveryMessageType(t *testing.T) {
	seen := make(map[reflect.Type]bool)
	for _, msg := range allMessages() {
		typ := reflect.TypeOf(msg)
		if seen[typ] {
			t.Fatalf("duplicate sample for %v", typ)
		}
		seen[typ] = true
	}
	decodable := 0
	for kind := 0; kind <= 0xFF; kind++ {
		msg := readMessageBody(&binReader{}, uint8(kind)) // empty body: the type is all that is wanted
		if msg == nil {
			continue
		}
		decodable++
		if !seen[reflect.TypeOf(msg)] {
			t.Errorf("kind %d decodes to %T, which allMessages does not sample — update the sample list when adding messages", kind, msg)
		}
	}
	if decodable != len(seen) {
		t.Fatalf("the decoder knows %d kinds, allMessages samples %d types", decodable, len(seen))
	}
}

// TestEveryMessageTypeIsSampled parses the package's own (non-test)
// source and requires every type that declares a Kind() string method
// — every Message — to appear in allMessages, and the counts to agree
// (a declaration this parse misses fails too). A new message type that
// nothing wires fails here; the round trips and
// TestBinaryRoundTripCoversEveryMessageType hold the codec's arms and
// the decoder's kinds to the same sample.
func TestEveryMessageTypeIsSampled(t *testing.T) {
	sampled := make(map[string]bool)
	for _, msg := range allMessages() {
		sampled[reflect.TypeOf(msg).Elem().Name()] = true
	}
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	declared := 0
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Kind" ||
				fd.Type.Params.NumFields() != 0 || fd.Type.Results.NumFields() != 1 {
				continue
			}
			if res, ok := fd.Type.Results.List[0].Type.(*ast.Ident); !ok || res.Name != "string" {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			typ := recv.(*ast.Ident).Name
			declared++
			if !sampled[typ] {
				t.Errorf("%s: %s declares Kind() but allMessages does not sample it — wire it into the codec and the sample list",
					fset.Position(fd.Pos()), typ)
			}
		}
	}
	if declared != len(sampled) {
		t.Fatalf("%d types declare Kind(), allMessages samples %d", declared, len(sampled))
	}
}

// TestBinaryRoundTripNilVersusEmpty pins the +1 count scheme: a nil
// Params and an empty-but-allocated Params are different values and
// must both survive.
func TestBinaryRoundTripNilVersusEmpty(t *testing.T) {
	for _, params := range [][]byte{nil, {}} {
		m := &Submit{Call: CallID{User: "u", Session: 1, Seq: 2}, Params: params}
		back, err := DecodeMessage(EncodeMessage(m))
		if err != nil {
			t.Fatal(err)
		}
		got := back.(*Submit).Params
		if (params == nil) != (got == nil) {
			t.Fatalf("params nil-ness flipped: sent %#v, got %#v", params, got)
		}
	}
}

// TestBinaryJobRecordRoundTrip covers JobRecord through EncodeJob, every
// field populated.
func TestBinaryJobRecordRoundTrip(t *testing.T) {
	rec := &JobRecord{
		Call:       CallID{User: "user-01", Session: 7, Seq: 42},
		Service:    "svc",
		Params:     []byte{1, 2, 3},
		ExecTime:   3 * time.Second,
		ResultSize: 128,
		State:      TaskOngoing,
		Instance:   5,
		Output:     []byte{9},
		ResultErr:  "boom",
		Server:     "server-000",
	}
	back, err := DecodeJob(EncodeJob(rec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, back) {
		t.Fatalf("round trip mismatch:\n sent %#v\n got  %#v", rec, back)
	}
}

// TestBinaryEncodingStable pins second-generation stability: encoding
// the decoded value reproduces the exact bytes, so logs and WALs never
// churn when records are rewritten.
func TestBinaryEncodingStable(t *testing.T) {
	for _, msg := range allMessages() {
		raw := EncodeMessage(msg)
		back, err := DecodeMessage(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", msg.Kind(), err)
		}
		if again := EncodeMessage(back); !bytes.Equal(raw, again) {
			t.Errorf("%s: re-encode differs:\n first  %x\n second %x", msg.Kind(), raw, again)
		}
	}
}

// TestKindBytesStable pins every message's wire kind byte. These are
// protocol constants: renumbering breaks mixed clusters and stored
// logs, so a changed value must be a loud, deliberate event.
func TestKindBytesStable(t *testing.T) {
	want := map[string]uint8{
		"submit": 1, "submit-ack": 2, "poll": 3, "results": 4,
		"sync-request": 5, "sync-reply": 6,
		"heartbeat": 9, "heartbeat-ack": 10, "task-result": 11, "task-result-ack": 12,
		"task-cancel": 13, "server-sync": 14, "server-sync-reply": 15,
		"replica-update": 16, "replica-ack": 17,
	}
	for _, msg := range allMessages() {
		if got := kindOf(msg); got != want[msg.Kind()] {
			t.Errorf("%s: kind byte %d, want %d", msg.Kind(), got, want[msg.Kind()])
		}
	}
	if kindJobRecord != 25 {
		t.Errorf("job record kind byte %d, want 25", kindJobRecord)
	}
	if kindJobHeader != 28 {
		t.Errorf("job header kind byte %d, want 28", kindJobHeader)
	}
}

// retiredKinds are kind bytes no message has any more: a per-call
// fetch and its reply (7, 8), a shard-map request and its reply (18,
// 19), a shard redirect, a cross-shard sync and its ack (20, 21, 22),
// a cross-shard steal request and its grant (23, 24), a conformance
// run's fault and verdict records (26, 27). Their numbers stay unused
// so that no other kind shifts.
var retiredKinds = []uint8{7, 8, 18, 19, 20, 21, 22, 23, 24, 26, 27}

// TestRetiredKindsDoNotDecode feeds every decoder a retired kind byte in
// front of bodies that would decode under a live kind — each surviving
// message's, an empty one and the fetch request's, the steal request's,
// the shard sync's and the fault and verdict records' old layouts — and
// wants an error: never a message, never a panic.
func TestRetiredKindsDoNotDecode(t *testing.T) {
	var bodies [][]byte
	for _, msg := range allMessages() {
		bodies = append(bodies, appendMessageBody(nil, msg, nil))
	}
	fetch := appendString(nil, "user-01")
	fetch = binary.AppendUvarint(fetch, 7)
	steal := appendNode(nil, "coord-02")
	for _, v := range []uint64{2, 2, 3, 8} { // shard, epoch, round, capacity
		steal = binary.AppendUvarint(steal, v)
	}
	// A shard sync: from, shard, epoch, round, one job, one session's
	// watermark and sequence set.
	sync := appendNode(nil, "coord-00")
	for _, v := range []uint64{0, 2, 5} { // shard, epoch, round
		sync = binary.AppendUvarint(sync, v)
	}
	job := JobRecord{Call: CallID{User: "user-01", Session: 7, Seq: 42}, Service: "svc", State: TaskFinished}
	sync = appendEach(sync, []JobRecord{job}, nil, appendJobBody)
	sync = binary.AppendUvarint(sync, 2) // one session
	sync = appendString(sync, "user-01")
	sync = binary.AppendUvarint(sync, 7)
	sync = appendSeq(sync, 40)
	sync = appendSlice(sync, []RPCSeq{41, 42}, appendSeq)
	// A fault record: suite, scenario, cell, fault, node, peer, time,
	// detail; a verdict record: suite, scenario, cell, verdict, digest,
	// delivered, expected, faults, elapsed.
	fault := appendString(nil, "default")
	for _, s := range []string{"oneway", "store=wal", "partition", "coord-00", "server-000"} {
		fault = appendString(fault, s)
	}
	fault = appendString(appendDur(fault, 2*time.Second), "block co-0 -> sv-0")
	verdict := appendString(nil, "default")
	for _, s := range []string{"oneway", "store=wal", "pass", "sha256:00ff"} {
		verdict = appendString(verdict, s)
	}
	for _, v := range []int64{40, 40, 2} {
		verdict = binary.AppendVarint(verdict, v)
	}
	verdict = appendDur(verdict, 3*time.Second)
	bodies = append(bodies, nil, appendSeq(fetch, 42), steal, sync, fault, verdict)
	for _, kind := range retiredKinds {
		for i, body := range bodies {
			blob := append([]byte{binMagic, binVersion, kind}, body...)
			if msg, err := DecodeMessage(blob); err == nil || msg != nil {
				t.Errorf("kind %d, body %d: stored blob decoded to %v (err %v)", kind, i, msg, err)
			}
			var dec Decoder
			if msg, err := dec.DecodeLogged(append([]byte{binMagic, binVersion, kind | kindBare}, body...), nil); err == nil || msg != nil {
				t.Errorf("kind %d, body %d: log header decoded to %v (err %v)", kind, i, msg, err)
			}
			frame := append(appendString([]byte{0, 0, 0, 0, kind}, "node-a"), body...)
			binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
			if _, msg, err := NewWireDecoder(bytes.NewReader(frame)).Next(); err == nil || msg != nil {
				t.Errorf("kind %d, body %d: wire frame decoded to %v (err %v)", kind, i, msg, err)
			}
		}
	}
}

// wireSizeHints mirrors each WireSize formula: the number of
// headerSize-sized record hints it charges and the fixed per-element
// ID/seq hint bytes it adds beyond real payload bytes. The slack
// between WireSize and the true marshalled length can never exceed
// those hints (every hinted element encodes to at least one byte), so
// the bound below pins the hint against the codec from above — while
// "actual <= WireSize" pins it from below. Adding a message field
// without touching WireSize now fails this test instead of silently
// skewing the simulator's netmodel cost accounting.
func wireSizeHints(msg Message) (records int, hintBytes int) {
	switch m := msg.(type) {
	case *Results:
		return 1 + len(m.Results), 0
	case *Poll:
		return 1, 8 * len(m.Have)
	case *SyncReply:
		return 1, 8 * len(m.Known)
	case *HeartbeatAck:
		return 1 + len(m.Tasks), 16 * len(m.Coordinators)
	case *ServerSync:
		return 1, 40 * (len(m.Tasks) + len(m.Running))
	case *ServerSyncReply:
		return 1, 40 * (len(m.Resend) + len(m.Drop))
	case *ReplicaUpdate:
		return 1 + len(m.Jobs), 24 * len(m.MaxSeqs)
	default:
		return 1, 0
	}
}

// TestWireSizeMatchesCodec checks, for every message kind, that the
// WireSize hint brackets the actual binary encoding: never smaller
// (the netmodel would undercharge, and encode buffers would regrow),
// and larger only by the structural slack the hint formulas knowingly
// include.
func TestWireSizeMatchesCodec(t *testing.T) {
	// Poll.Ack has no WireSize term of its own: even a ten-byte varint
	// watermark must fit in the header hint.
	bigAck := &Poll{User: "user-01", Session: 7, Ack: 1 << 63}
	for _, msg := range append(allMessages(), bigAck) {
		actual := len(EncodeMessage(msg)) - 3 // strip magic/version/kind
		ws := msg.WireSize()
		if actual > ws {
			t.Errorf("%s: marshalled length %d exceeds WireSize %d — a field was added without updating WireSize",
				msg.Kind(), actual, ws)
		}
		records, hintBytes := wireSizeHints(msg)
		if slack := ws - actual; slack > headerSize*records+hintBytes {
			t.Errorf("%s: WireSize %d overestimates marshalled length %d by %d (allowed %d)",
				msg.Kind(), ws, actual, slack, headerSize*records+hintBytes)
		}
	}
}

// TestWireSizeTracksPayload pins payload proportionality: growing a
// payload field by n bytes must grow both WireSize and the encoding by
// exactly n, so the netmodel's bandwidth charge follows real bytes.
func TestWireSizeTracksPayload(t *testing.T) {
	const n = 4096
	small := &Submit{Call: CallID{User: "u", Session: 1, Seq: 1}, Service: "svc"}
	big := &Submit{Call: small.Call, Service: "svc", Params: make([]byte, n)}
	if d := big.WireSize() - small.WireSize(); d != n {
		t.Errorf("WireSize delta %d for %d payload bytes", d, n)
	}
	encSmall := len(EncodeMessage(small))
	encBig := len(EncodeMessage(big))
	// The +1 count scheme and the length varint add a few bytes, never
	// proportional ones.
	if d := encBig - encSmall; d < n || d > n+4 {
		t.Errorf("encoding delta %d for %d payload bytes", d, n)
	}
}

// TestWireDecoderRoundTrip streams every message kind through the
// framed wire encoding — preface, then one frame per message on a
// single reused decoder — and requires identical values and sender
// IDs back.
func TestWireDecoderRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	stream.Write(FramePreface[:])
	msgs := allMessages()
	buf := GetBuffer()
	for _, m := range msgs {
		buf.B = mustFrame(t, buf.B, "node-a", m)
	}
	stream.Write(buf.B)
	PutBuffer(buf)

	br := bufio.NewReader(&stream)
	if err := ReadPreface(br); err != nil {
		t.Fatal(err)
	}
	dec := NewWireDecoder(br)
	for i, want := range msgs {
		from, got, err := dec.Next()
		if err != nil {
			t.Fatalf("frame %d (%s): %v", i, want.Kind(), err)
		}
		if from != "node-a" {
			t.Fatalf("frame %d: from = %q", i, from)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("frame %d (%s): mismatch:\n sent %#v\n got  %#v", i, want.Kind(), want, got)
		}
	}
	if _, _, err := dec.Next(); err != io.EOF {
		t.Fatalf("tail error = %v, want io.EOF", err)
	}
}

// TestWireDecoderRejectsTornFrames feeds the decoder every possible
// truncation of a valid frame stream: each must yield a non-EOF error
// (or a clean EOF exactly at a frame boundary) — never a panic, never
// a phantom message.
func TestWireDecoderRejectsTornFrames(t *testing.T) {
	frame := mustFrame(t, nil, "node-a", &Submit{
		Call: CallID{User: "user-01", Session: 7, Seq: 42}, Service: "svc", Params: []byte{1, 2, 3},
	})
	for cut := 0; cut < len(frame); cut++ {
		dec := NewWireDecoder(bytes.NewReader(frame[:cut]))
		_, msg, err := dec.Next()
		if msg != nil {
			t.Fatalf("cut %d: got a message from a torn frame", cut)
		}
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut 0: err = %v, want io.EOF (clean boundary)", err)
			}
		} else if err == nil || err == io.EOF {
			t.Fatalf("cut %d: err = %v, want a torn-frame error", cut, err)
		}
	}
}

// TestWireDecoderRejectsGarbage pins the hardening: oversized or zero
// length prefixes, truncated bodies, non-canonical bools, unknown
// kinds and trailing bytes all error out without allocating the
// declared (potentially huge) sizes and without panicking.
func TestWireDecoderRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"zero length":    {0, 0, 0, 0},
		"huge length":    {0xFF, 0xFF, 0xFF, 0xFF, 1},
		"unknown kind":   frameBytes(t, func(b []byte) []byte { b[4] = 200; return b }),
		"trailing bytes": frameBytes(t, func(b []byte) []byte { return growFrame(b, 3) }),
		// A task instance is a uint32: a 5-byte varint above it is
		// corrupt, not cut down to another instance.
		"instance over 32 bits": frameBytes(t, func(b []byte) []byte {
			b = binary.AppendUvarint(b[:len(b)-1], math.MaxUint32+1)
			binary.BigEndian.PutUint32(b, uint32(len(b)-4))
			return b
		}),
	}
	for name, raw := range cases {
		dec := NewWireDecoder(bytes.NewReader(raw))
		if _, msg, err := dec.Next(); err == nil || msg != nil {
			t.Errorf("%s: decoded msg=%v err=%v, want error", name, msg, err)
		}
	}
	// Storage blobs harden the same way.
	if _, err := DecodeMessage([]byte{binMagic, binVersion, 200, 1, 2}); err == nil {
		t.Error("DecodeMessage accepted an unknown kind")
	}
	if _, err := DecodeMessage([]byte{binMagic, 99, kindSubmit}); err == nil {
		t.Error("DecodeMessage accepted an unknown version")
	}
	// A blob torn inside the 3-byte header is corrupt like one torn
	// anywhere else.
	for _, torn := range [][]byte{{binMagic}, {binMagic, binVersion}} {
		if _, err := DecodeMessage(torn); !errors.Is(err, ErrCorrupt) {
			t.Errorf("torn header (%d bytes): err = %v, want ErrCorrupt", len(torn), err)
		}
		if _, err := DecodeJob(torn); !errors.Is(err, ErrCorrupt) {
			t.Errorf("torn job header (%d bytes): err = %v, want ErrCorrupt", len(torn), err)
		}
	}
	if _, err := DecodeJob([]byte{binMagic, binVersion, kindSubmit}); err == nil {
		t.Error("DecodeJob accepted a non-job kind")
	}
}

// mustFrame is AppendFrame for messages known to fit the frame cap.
func mustFrame(t *testing.T, dst []byte, from NodeID, msg Message) []byte {
	t.Helper()
	out, err := AppendFrame(dst, from, msg)
	if err != nil {
		t.Fatalf("AppendFrame(%s): %v", msg.Kind(), err)
	}
	return out
}

// frameBytes builds a valid one-frame stream and lets the caller
// corrupt it; the length prefix is patched to stay consistent.
func frameBytes(t *testing.T, corrupt func([]byte) []byte) []byte {
	t.Helper()
	b := mustFrame(t, nil, "n", &TaskCancel{Task: TaskID{Call: CallID{User: "u", Session: 1, Seq: 2}}})
	return corrupt(b)
}

// growFrame appends n garbage bytes inside the frame (the length
// prefix is updated, so the body carries trailing junk).
func growFrame(b []byte, n int) []byte {
	for i := 0; i < n; i++ {
		b = append(b, 0xAA)
	}
	ln := len(b) - 4
	b[0], b[1], b[2], b[3] = byte(ln>>24), byte(ln>>16), byte(ln>>8), byte(ln)
	return b
}

// TestAppendFrameRefusesOversized pins the send-side half of the
// MaxFrame contract: a message encoding over the cap is refused with
// dst rolled back, so one oversized message costs itself (best-effort
// loss) instead of poisoning the connection for the whole batch —
// every receiver would reject the length prefix and tear the stream
// down.
func TestAppendFrameRefusesOversized(t *testing.T) {
	big := &Submit{Call: CallID{User: "u", Session: 1, Seq: 2},
		Params: make([]byte, MaxFrame+1)}
	dst := []byte{0xAB, 0xCD}
	out, err := AppendFrame(dst, "n", big)
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if len(out) != len(dst) || out[0] != 0xAB || out[1] != 0xCD {
		t.Fatalf("dst not rolled back: len %d", len(out))
	}
	// The batch continues: a normal message still frames onto the
	// rolled-back buffer.
	out = mustFrame(t, out, "n", &SubmitAck{Call: big.Call})
	dec := NewWireDecoder(bytes.NewReader(out[2:]))
	if _, msg, err := dec.Next(); err != nil || msg.Kind() != "submit-ack" {
		t.Fatalf("frame after rollback: %v %v", msg, err)
	}
}

// TestDecodersRejectBlobsWithoutTheMagic pins what replaced the codec
// auto-detect: a storage blob that does not open with the magic — random
// bytes, another program's file, the body of a valid blob with its
// header cut off, what a gob stream starts like — is corrupt to every
// storage decoder: an error wrapping ErrCorrupt, never a panic, never a
// value. So is a blob of codec version 1, each stored shape as the last
// build of that version wrote it (a submission and a job record still
// carried a deadline, a result its execution time): the version alone
// refuses it, even beside the payload a header names.
func TestDecodersRejectBlobsWithoutTheMagic(t *testing.T) {
	msgBlob := EncodeMessage(allMessages()[0])
	jobBlob := EncodeJob(&JobRecord{Call: CallID{User: "u", Session: 1, Seq: 2}, Service: "svc", Params: []byte{1}})
	// What a version-1 header was stored with, handed to the decoders
	// beside it.
	beside := map[string][]byte{
		"version 1 log header": make([]byte, BlobMin),
		"version 1 job header": make([]byte, BlobMin),
	}
	cases := map[string][]byte{
		"nil":                     nil,
		"empty":                   {},
		"text":                    []byte("not a blob"),
		"zeroes":                  make([]byte, 64),
		"gob-like stream":         {0x2c, 0xff, 0x81, 0x03, 0x01, 0x01, 0x09, 'J', 'o', 'b', 'R', 'e', 'c', 'o', 'r', 'd', 0x01, 0xff, 0x82, 0x00},
		"gob multi-byte count":    {0xfe, 0x01, 0x2c, 0xff, 0x81},
		"message body, no header": msgBlob[3:],
		"job body, no header":     jobBlob[3:],
		"magic in second place":   append([]byte{0x00}, msgBlob...),
		"version 1 message":       []byte("\xbc\x01\x01\x01u\x01\x02\x03svc\x02\x01\x00\x00\x00"),
		"version 1 log header":    []byte("\xbc\x01\x8b\x02sv\x01u\x01\x02\x01\x81 \x00\x00"),
		"version 1 job record":    []byte("\xbc\x01\x19\x01u\x01\x02\x03svc\x02\x01\x00\x00\x00\x00\x00\x00\x00\x00"),
		"version 1 job header":    []byte("\xbc\x01\x1c\x01\x80 \xbc\x01\x19\x01u\x01\x02\x03svc\x00\x00\x00\x00\x00\x00\x00\x00\x00"),
	}
	for name, raw := range cases {
		var dec Decoder
		if msg, err := dec.DecodeMessage(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeMessage = %v, %v; want ErrCorrupt", name, msg, err)
		}
		if msg, err := dec.DecodeLogged(raw, beside[name]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeLogged = %v, %v; want ErrCorrupt", name, msg, err)
		}
		if rec, err := dec.DecodeJob(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeJob = %v, %v; want ErrCorrupt", name, rec, err)
		}
		if rec, err := dec.DecodeJobHeader(raw, beside[name], nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeJobHeader = %v, %v; want ErrCorrupt", name, rec, err)
		}
	}
}

// TestBinaryCodecAllocations is the codec's allocation contract,
// enforced deterministically: encoding a small Submit allocates exactly the returned blob, and a
// warmed reusable decoder allocates exactly the message.
func TestBinaryCodecAllocations(t *testing.T) {
	sub := &Submit{Call: CallID{User: "u0", Session: 1, Seq: 42}, Service: "noop"}
	if n := testing.AllocsPerRun(200, func() { _ = EncodeMessage(sub) }); n > 1 {
		t.Errorf("encode allocates %.1f times per op, want <= 1", n)
	}
	raw := EncodeMessage(sub)
	var dec Decoder
	if _, err := dec.DecodeMessage(raw); err != nil { // warm the intern table
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := dec.DecodeMessage(raw); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("decode allocates %.1f times per op, want <= 1", n)
	}
}

// TestEncodeBufferPool pins the pool contract: a returned buffer comes
// back empty, and oversized buffers are dropped rather than retained.
func TestEncodeBufferPool(t *testing.T) {
	b := GetBuffer()
	b.B = append(b.B, make([]byte, 100)...)
	PutBuffer(b)
	c := GetBuffer()
	if len(c.B) != 0 {
		t.Fatalf("pooled buffer returned with %d stale bytes", len(c.B))
	}
	PutBuffer(c)
	huge := &EncodeBuffer{B: make([]byte, 0, 1<<21)}
	PutBuffer(huge) // must not panic; must not be pinned (unobservable, but covered)
}

// TestInternTableCaps bounds the string cache: entries beyond the cap
// and oversized strings fall back to plain allocation, and the interned
// copy is value-correct.
func TestInternTableCaps(t *testing.T) {
	var tab internTable
	long := strings.Repeat("x", maxInternLen+1)
	if got := tab.get([]byte(long)); got != long {
		t.Fatal("oversized string corrupted")
	}
	if len(tab.m) != 0 {
		t.Fatal("oversized string was interned")
	}
	if got := tab.get([]byte("abc")); got != "abc" {
		t.Fatal("interned string corrupted")
	}
	if got := tab.get([]byte("abc")); got != "abc" {
		t.Fatal("second lookup corrupted")
	}
	if len(tab.m) != 1 {
		t.Fatalf("intern table has %d entries, want 1", len(tab.m))
	}
}
