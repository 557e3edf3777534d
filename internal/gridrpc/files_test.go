package gridrpc

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rpcv/internal/server"
)

// wordcount is a file service: counts words per input file and emits a
// "<name>.count" output per input, plus a "total" file.
func wordcount(in Files) (Files, error) {
	out := make(Files)
	total := 0
	for name, payload := range in {
		n := len(strings.Fields(string(payload)))
		total += n
		out[name+".count"] = []byte(intToString(n))
	}
	out["total"] = []byte(intToString(total))
	return out, nil
}

func intToString(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestCallFilesRoundTrip(t *testing.T) {
	g := testGrid(t, 2, map[string]server.Service{
		"wordcount": FileService(wordcount),
	})
	s := dialTest(t, g, Config{User: "files", Session: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	out, err := s.CallFiles(ctx, "wordcount", Files{
		"a.txt": []byte("one two three"),
		"b.txt": []byte("four five"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(out["a.txt.count"]) != "3" || string(out["b.txt.count"]) != "2" {
		t.Fatalf("counts = %q %q", out["a.txt.count"], out["b.txt.count"])
	}
	if string(out["total"]) != "5" {
		t.Fatalf("total = %q", out["total"])
	}
}

func TestCallFilesLargePayload(t *testing.T) {
	g := testGrid(t, 1, map[string]server.Service{
		"identity": FileService(func(in Files) (Files, error) { return in, nil }),
	})
	s := dialTest(t, g, Config{User: "big", Session: 1})

	blob := bytes.Repeat([]byte{0xAB, 0x00, 0xCD}, 100_000)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := s.CallFiles(ctx, "identity", Files{"blob.bin": blob})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out["blob.bin"], blob) {
		t.Fatal("large payload corrupted in transit")
	}
}

func TestFileServiceRejectsGarbageParams(t *testing.T) {
	svc := FileService(func(in Files) (Files, error) { return in, nil })
	if _, err := svc([]byte("not an archive")); err == nil {
		t.Fatal("file service accepted garbage parameters")
	}
}

func TestFileServiceErrorPropagates(t *testing.T) {
	g := testGrid(t, 1, map[string]server.Service{
		"angry": FileService(func(Files) (Files, error) {
			return nil, errors.New("bad input files")
		}),
	})
	s := dialTest(t, g, Config{User: "err", Session: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_, err := s.CallFiles(ctx, "angry", Files{"x": nil})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}
