package proto

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"
)

func headerFixture(params, output int) *JobRecord {
	rec := &JobRecord{
		Call: CallID{User: "user-01", Session: 7, Seq: 42}, Service: "svc",
		ExecTime: 3 * time.Second, ResultSize: 9, State: TaskFinished, Instance: 2,
		ResultErr: "boom", Server: "server-000",
	}
	if params >= 0 {
		rec.Params = bytes.Repeat([]byte{0xA5}, params)
	}
	if output >= 0 {
		rec.Output = bytes.Repeat([]byte{0x5A}, output)
	}
	return rec
}

// A header round-trips for every size of either payload: what reaches
// BlobMin comes back beside the header — the record's own slice, named
// by it — and everything else is the record.
func TestJobHeaderRoundTrip(t *testing.T) {
	for _, sizes := range [][2]int{{100, 100}, {5000, 100}, {100, 70000}, {5000, 70000}} {
		rec := headerFixture(sizes[0], sizes[1])
		raw, params, output := EncodeJobHeader(rec)
		var named uint8
		for i, blob := range [][]byte{params, output} {
			payload := [][]byte{rec.Params, rec.Output}[i]
			switch {
			case len(payload) < BlobMin && blob != nil:
				t.Fatalf("sizes %v: payload %d of %d B cut out", sizes, i, len(payload))
			case len(payload) >= BlobMin && (len(blob) != len(payload) || &blob[0] != &payload[0]):
				t.Fatalf("sizes %v: payload %d of %d B not returned as is", sizes, i, len(payload))
			case blob != nil:
				named |= 1 << i
			}
		}
		if got := NamedPayloads(raw); got != named {
			t.Fatalf("sizes %v: header names %b, want %b", sizes, got, named)
		}
		var dec Decoder
		back, err := dec.DecodeJobHeader(raw, params, output)
		if err != nil {
			t.Fatalf("sizes %v: %v", sizes, err)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Fatalf("sizes %v: record\n got %+v\nwant %+v", sizes, *back, *rec)
		}
		if named == 3 && len(raw) > 128 {
			t.Fatalf("sizes %v: header is %d bytes — a payload leaked into it", sizes, len(raw))
		}
	}
}

// With nothing cut out a header is the whole record EncodeJob writes,
// byte for byte — a small job costs no prefix, and DecodeJob reads it.
func TestJobHeaderWithoutExternalsIsTheWholeRecord(t *testing.T) {
	rec := headerFixture(64, 64)
	want := append([]byte{binMagic, binVersion, kindJobRecord}, appendJobBody(nil, rec, nil)...)
	if got, params, output := EncodeJobHeader(rec); !bytes.Equal(got, want) || params != nil || output != nil {
		t.Fatalf("header without externals differs from the whole-record encoding")
	}
	back, err := DecodeJob(want)
	if err != nil || !reflect.DeepEqual(back, rec) {
		t.Fatalf("DecodeJob of an all-inline header: %v, %+v", err, back)
	}
}

// A header that is malformed decodes to no record; one whose named
// payloads are missing or of another length is corrupt too, and says
// whose record it was.
func TestDecodeJobHeaderRejectsMalformedHeaders(t *testing.T) {
	p := bytes.Repeat([]byte{1}, 5000)
	good := encodeJobHeader(headerFixture(5000, 5000), jobParams|jobOutput)
	whole := EncodeJob(headerFixture(8, -1))
	cases := map[string][]byte{
		"no payloads named":      append([]byte{binMagic, binVersion, kindJobHeader, 0}, whole...),
		"unknown payload bit":    append([]byte{binMagic, binVersion, kindJobHeader, 4, 1}, whole...),
		"truncated length":       {binMagic, binVersion, kindJobHeader, byte(jobParams), 0x80},
		"no record after prefix": good[:6],
		"external and inline":    append([]byte{binMagic, binVersion, kindJobHeader, byte(jobParams), 8}, whole...),
		"trailing garbage":       append(bytes.Clone(good), 0),
	}
	for name, raw := range cases {
		if _, err := new(Decoder).DecodeJobHeader(raw, p[:8], p); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	for name, blobs := range map[string][2][]byte{"params missing": {nil, p}, "output short": {p, p[1:]}} {
		rec, err := new(Decoder).DecodeJobHeader(good, blobs[0], blobs[1])
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
		if rec == nil || rec.Call != headerFixture(0, 0).Call {
			t.Errorf("%s: no record beside the error to tell whose it was", name)
		}
	}
	if _, err := new(Decoder).DecodeJobHeader(good, p, p); err != nil {
		t.Errorf("the intact header: %v", err)
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
		"header":        encodeJobHeader(headerFixture(64<<10, 64<<10), jobParams|jobOutput),
	}
	for name, raw := range encodings {
		slack := cap(raw) - len(raw)
		if limit := max(len(raw)/8, 16); slack > limit {
			t.Errorf("%s: %d bytes long with %d spare (limit %d)", name, len(raw), slack, limit)
		}
	}
}
