// Package shared holds small helpers used by the cmd/ daemons: static
// directory parsing and the built-in demo service registry.
package shared

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"rpcv/internal/proto"
	"rpcv/internal/rt"
	"rpcv/internal/server"
)

// ParseDirectory parses "id=addr,id=addr" into a runtime directory and
// the ordered ID list. The empty string yields an empty directory.
func ParseDirectory(s string) (rt.Directory, []proto.NodeID, error) {
	dir := rt.Directory{}
	var ids []proto.NodeID
	if strings.TrimSpace(s) == "" {
		return dir, ids, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, nil, fmt.Errorf("malformed entry %q (want id=addr)", part)
		}
		nid := proto.NodeID(id)
		dir[nid] = addr
		ids = append(ids, nid)
	}
	return dir, ids, nil
}

// BuiltinServices returns the demo service registry shipped with
// rpcv-server: enough to exercise the system end to end without
// writing code.
//
//	echo    — returns the parameters unchanged
//	upper   — ASCII upper-case
//	reverse — reverses the payload
//	sum     — sums the payload bytes, returns the decimal string
//	sleep   — parses the payload as a Go duration, sleeps, returns "ok"
//	          (stateless: repeating it is harmless, per RPC-V's
//	          at-least-once semantics)
func BuiltinServices() map[string]server.Service {
	return map[string]server.Service{
		"echo": func(p []byte) ([]byte, error) {
			return append([]byte(nil), p...), nil
		},
		"upper": func(p []byte) ([]byte, error) {
			out := make([]byte, len(p))
			for i, b := range p {
				if 'a' <= b && b <= 'z' {
					b -= 'a' - 'A'
				}
				out[i] = b
			}
			return out, nil
		},
		"reverse": func(p []byte) ([]byte, error) {
			out := make([]byte, len(p))
			for i, b := range p {
				out[len(p)-1-i] = b
			}
			return out, nil
		},
		"sum": func(p []byte) ([]byte, error) {
			var total uint64
			for _, b := range p {
				total += uint64(b)
			}
			return []byte(strconv.FormatUint(total, 10)), nil
		},
		"sleep": func(p []byte) ([]byte, error) {
			d, err := time.ParseDuration(strings.TrimSpace(string(p)))
			if err != nil {
				return nil, fmt.Errorf("sleep: %w", err)
			}
			if d > time.Hour {
				return nil, fmt.Errorf("sleep: %v exceeds the 1h cap", d)
			}
			time.Sleep(d)
			return []byte("ok"), nil
		},
	}
}
