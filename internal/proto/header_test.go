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

// A header round-trips for every choice of external payloads: the
// external ones come back nil with their length beside them, everything
// else is the record.
func TestJobHeaderRoundTrip(t *testing.T) {
	for _, ext := range []JobPayloads{0, JobParams, JobOutput, JobParams | JobOutput} {
		rec := headerFixture(5000, 70000)
		raw := EncodeJobHeader(rec, ext)
		var dec Decoder
		sj, err := dec.DecodeStoredJob(raw)
		if err != nil {
			t.Fatalf("ext %b: %v", ext, err)
		}
		if sj.External != ext {
			t.Fatalf("external %b, want %b", sj.External, ext)
		}
		want := *rec
		if ext&JobParams != 0 {
			want.Params = nil
			if sj.ParamsLen != 5000 {
				t.Fatalf("ext %b: params length %d, want 5000", ext, sj.ParamsLen)
			}
		}
		if ext&JobOutput != 0 {
			want.Output = nil
			if sj.OutputLen != 70000 {
				t.Fatalf("ext %b: output length %d, want 70000", ext, sj.OutputLen)
			}
		}
		if !reflect.DeepEqual(*sj.Rec, want) {
			t.Fatalf("ext %b: record\n got %+v\nwant %+v", ext, *sj.Rec, want)
		}
		if ext == JobParams|JobOutput && len(raw) > 128 {
			t.Fatalf("ext %b: header is %d bytes — a payload leaked into it", ext, len(raw))
		}
		if rec.Params == nil || rec.Output == nil {
			t.Fatalf("ext %b: encoding stripped the caller's record", ext)
		}
	}
}

// With nothing external a header is the whole record earlier builds
// persisted, byte for byte — small jobs keep their stored size, and
// DecodeJob (which every pre-split reader uses) still reads it.
func TestJobHeaderWithoutExternalsIsTheWholeRecord(t *testing.T) {
	rec := headerFixture(64, 64)
	want := append([]byte{binMagic, binVersion, kindJobRecord}, appendJobBody(nil, rec)...)
	if got := EncodeJobHeader(rec, 0); !bytes.Equal(got, want) {
		t.Fatalf("header without externals differs from the whole-record encoding")
	}
	back, err := DecodeJob(want)
	if err != nil || !reflect.DeepEqual(back, rec) {
		t.Fatalf("DecodeJob of an all-inline header: %v, %+v", err, back)
	}
}

func TestDecodeStoredJobRejectsMalformedHeaders(t *testing.T) {
	good := EncodeJobHeader(headerFixture(5000, 5000), JobParams|JobOutput)
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
	encodings := map[string][]byte{
		"small message": EncodeMessage(small),
		"large message": EncodeMessage(large),
		"small job":     EncodeJob(headerFixture(64, 64)),
		"large job":     EncodeJob(headerFixture(64<<10, 64<<10)),
		"header":        EncodeJobHeader(headerFixture(64<<10, 64<<10), JobParams|JobOutput),
	}
	for name, raw := range encodings {
		slack := cap(raw) - len(raw)
		if limit := max(len(raw)/8, 16); slack > limit {
			t.Errorf("%s: %d bytes long with %d spare (limit %d)", name, len(raw), slack, limit)
		}
	}
}
