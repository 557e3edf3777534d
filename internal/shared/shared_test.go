package shared

import (
	"testing"
	"time"
)

func TestParseDirectory(t *testing.T) {
	dir, ids, err := ParseDirectory("a=host1:7000, b=host2:7001 ,c=host3:7002")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != "a" || ids[2] != "c" {
		t.Fatalf("ids = %v", ids)
	}
	if dir["b"] != "host2:7001" {
		t.Fatalf("dir = %v", dir)
	}
}

func TestParseDirectoryEmpty(t *testing.T) {
	dir, ids, err := ParseDirectory("   ")
	if err != nil || len(dir) != 0 || len(ids) != 0 {
		t.Fatalf("empty parse = %v %v %v", dir, ids, err)
	}
}

func TestParseDirectoryMalformed(t *testing.T) {
	for _, in := range []string{"justanid", "=addr", "id=", "a=1,=x"} {
		if _, _, err := ParseDirectory(in); err == nil {
			t.Errorf("ParseDirectory(%q) accepted malformed input", in)
		}
	}
}

func TestBuiltinServices(t *testing.T) {
	svcs := BuiltinServices()
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"echo", "abc", "abc"},
		{"upper", "aBc9", "ABC9"},
		{"reverse", "abc", "cba"},
		{"sum", "\x01\x02\x03", "6"},
	}
	for _, c := range cases {
		svc, ok := svcs[c.name]
		if !ok {
			t.Fatalf("service %q missing", c.name)
		}
		out, err := svc([]byte(c.in))
		if err != nil || string(out) != c.want {
			t.Errorf("%s(%q) = %q,%v; want %q", c.name, c.in, out, err, c.want)
		}
	}
}

func TestSleepService(t *testing.T) {
	svc := BuiltinServices()["sleep"]
	start := time.Now()
	out, err := svc([]byte("10ms"))
	if err != nil || string(out) != "ok" {
		t.Fatalf("sleep = %q,%v", out, err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Error("sleep returned early")
	}
	if _, err := svc([]byte("not a duration")); err == nil {
		t.Error("sleep accepted garbage")
	}
	if _, err := svc([]byte("24h")); err == nil {
		t.Error("sleep accepted an absurd duration")
	}
}

func TestEchoCopiesInput(t *testing.T) {
	svc := BuiltinServices()["echo"]
	in := []byte("abc")
	out, _ := svc(in)
	in[0] = 'X'
	if string(out) != "abc" {
		t.Error("echo aliased its input")
	}
}
