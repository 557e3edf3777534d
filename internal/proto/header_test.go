package proto

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func headerFixture(params, output int) *JobRecord {
	rec := &JobRecord{
		Call: CallID{User: "user-01", Session: 7, Seq: 42}, Service: "svc",
		ExecTime: 3 * time.Second, ResultSize: 9, State: TaskFinished, Instance: 2,
		ResultErr: "boom", Server: "server-000",
		Deadline: time.Unix(1_700_000_000, 5).UTC(),
	}
	if params >= 0 {
		rec.Params = bytes.Repeat([]byte{0xA5}, params)
	}
	if output >= 0 {
		rec.Output = bytes.Repeat([]byte{0x5A}, output)
	}
	return rec
}

// A header round-trips under both codecs for every choice of external
// payloads: the external ones come back nil with their length beside
// them, everything else is the record.
func TestJobHeaderRoundTrip(t *testing.T) {
	for _, codec := range []Codec{CodecBinary, CodecGob} {
		for _, ext := range []JobPayloads{0, JobParams, JobOutput, JobParams | JobOutput} {
			rec := headerFixture(5000, 70000)
			raw := codec.EncodeJobHeader(rec, ext)
			var dec Decoder
			sj, err := dec.DecodeStoredJob(raw)
			if err != nil {
				t.Fatalf("%s ext %b: %v", codec, ext, err)
			}
			if sj.External != ext {
				t.Fatalf("%s: external %b, want %b", codec, sj.External, ext)
			}
			want := *rec
			if ext&JobParams != 0 {
				want.Params = nil
				if sj.ParamsLen != 5000 {
					t.Fatalf("%s ext %b: params length %d, want 5000", codec, ext, sj.ParamsLen)
				}
			}
			if ext&JobOutput != 0 {
				want.Output = nil
				if sj.OutputLen != 70000 {
					t.Fatalf("%s ext %b: output length %d, want 70000", codec, ext, sj.OutputLen)
				}
			}
			if !reflect.DeepEqual(*sj.Rec, want) {
				t.Fatalf("%s ext %b: record\n got %+v\nwant %+v", codec, ext, *sj.Rec, want)
			}
			if ext == JobParams|JobOutput && len(raw) > 512 { // gob spends ~300 on its type descriptor
				t.Fatalf("%s ext %b: header is %d bytes — a payload leaked into it", codec, ext, len(raw))
			}
			if rec.Params == nil || rec.Output == nil {
				t.Fatalf("%s ext %b: encoding stripped the caller's record", codec, ext)
			}
		}
	}
}

// With nothing external a header is the whole record earlier builds
// persisted, byte for byte — small jobs keep their stored size, and
// DecodeJob (which every pre-split reader uses) still reads it.
func TestJobHeaderWithoutExternalsIsTheWholeRecord(t *testing.T) {
	rec := headerFixture(64, 64)
	want := append([]byte{binMagic, binVersion, kindJobRecord}, appendJobBody(nil, rec)...)
	if got := CodecBinary.EncodeJobHeader(rec, 0); !bytes.Equal(got, want) {
		t.Fatalf("binary header without externals differs from the whole-record encoding")
	}
	for _, codec := range []Codec{CodecBinary, CodecGob} {
		back, err := DecodeJob(codec.EncodeJobHeader(rec, 0))
		if err != nil || !reflect.DeepEqual(back, rec) {
			t.Fatalf("%s: DecodeJob of an all-inline header: %v, %+v", codec, err, back)
		}
	}
}

func TestDecodeStoredJobRejectsMalformedHeaders(t *testing.T) {
	good := CodecBinary.EncodeJobHeader(headerFixture(5000, 5000), JobParams|JobOutput)
	whole := EncodeJob(headerFixture(8, -1))
	cases := map[string][]byte{
		"no payloads named":      append([]byte{binMagic, binVersion, kindJobHeader, 0}, whole...),
		"unknown payload bit":    append([]byte{binMagic, binVersion, kindJobHeader, 4, 1}, whole...),
		"truncated length":       {binMagic, binVersion, kindJobHeader, byte(JobParams), 0x80},
		"no record after prefix": good[:6],
		"external and inline":    append([]byte{binMagic, binVersion, kindJobHeader, byte(JobParams), 8}, whole...),
		"trailing garbage":       append(bytes.Clone(good), 0),
	}
	for name, raw := range cases {
		if _, err := new(Decoder).DecodeStoredJob(raw); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	if _, err := DecodeJob(good); err == nil {
		t.Error("DecodeJob accepted a header with external payloads as a whole record")
	}
}

// Stores keep the slice an encoder returns, so an encoder must not
// return capacity it did not use: at most the allocator's own rounding
// (an eighth) on a payload-sized encoding, one size class on a small
// one — where the 64 B-per-record hint would otherwise be a third of
// what is retained.
func TestStoredEncodingsCarryNoSlack(t *testing.T) {
	small := &Submit{Call: CallID{User: "u0", Session: 1, Seq: 9}, Service: "echo", Params: make([]byte, 64)}
	large := &TaskResult{From: "sv0", Task: TaskID{Call: small.Call, Instance: 1}, Output: make([]byte, 64<<10)}
	encodings := map[string][]byte{}
	for _, codec := range []Codec{CodecBinary, CodecGob} {
		encodings[codec.String()+" small message"] = codec.EncodeMessage(small)
		encodings[codec.String()+" large message"] = codec.EncodeMessage(large)
		encodings[codec.String()+" small job"] = codec.EncodeJob(headerFixture(64, 64))
		encodings[codec.String()+" large job"] = codec.EncodeJob(headerFixture(64<<10, 64<<10))
		encodings[codec.String()+" header"] = codec.EncodeJobHeader(headerFixture(64<<10, 64<<10), JobParams|JobOutput)
	}
	for name, raw := range encodings {
		slack := cap(raw) - len(raw)
		if limit := max(len(raw)/8, 16); slack > limit {
			t.Errorf("%s: %d bytes long with %d spare (limit %d)", name, len(raw), slack, limit)
		}
	}
}
