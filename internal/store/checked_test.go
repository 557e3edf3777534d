package store

import (
	"strings"
	"testing"
)

// engines opens both engines: every place that holds a caller's value.
func engines(t *testing.T) map[string]Store {
	t.Helper()
	return map[string]Store{"memory": NewMemory(), "wal": openTestWAL(t, t.TempDir(), WALOptions{})}
}

// The ownership contract, engine side: Write and WriteAsync keep the
// caller's slice, Read hands that slice back — before and after the
// write is durable — and neither allocates for the value.
func TestEnginesKeepTheCallersSlice(t *testing.T) {
	for name, st := range engines(t) {
		value := []byte("sixty-four KiB, in spirit")
		if err := st.Write("k", value); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, ok := st.Read("k"); !ok || &got[0] != &value[0] || len(got) != len(value) {
			t.Errorf("%s: Read after Write returned another slice", name)
		}
		staged := []byte("staged")
		durable := make(chan error, 1)
		st.WriteAsync("k2", staged, func(err error) { durable <- err })
		if got, ok := st.Read("k2"); !ok || &got[0] != &staged[0] {
			t.Errorf("%s: Read of a staged WriteAsync returned another slice", name)
		}
		if err := <-durable; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := st.Sync(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, ok := st.Read("k2"); !ok || &got[0] != &staged[0] {
			t.Errorf("%s: Read after the commit returned another slice", name)
		}
	}
}

// checkedOver wraps st and collects the violations it reports.
func checkedOver(st Store) (Store, *[]string) {
	var got []string
	return Checked(st, func(msg string) { got = append(got, msg) }), &got
}

func wantViolation(t *testing.T, name string, got *[]string, key, at string) {
	t.Helper()
	if len(*got) != 1 || !strings.Contains((*got)[0], `"`+key+`"`) || !strings.Contains((*got)[0], at) {
		t.Errorf("%s: violations %q, want one for %q noticed at %s", name, *got, key, at)
	}
	*got = nil
}

// A caller that modifies a slice after handing it over, or one the
// store handed back, is reported at the next Read, overwrite, Delete
// and Close — whichever comes first — and a caller that does not is
// never reported.
func TestCheckedReportsModifiedValues(t *testing.T) {
	for name, inner := range engines(t) {
		st, got := checkedOver(inner)

		buf := []byte("handed over")
		_ = st.Write("a", buf) // memory and a healthy wal do not fail
		buf[0] = 'H'
		st.Read("a")
		wantViolation(t, name, got, "a", "Read")

		_ = st.Write("b", buf)
		buf[1] = 'A'
		_ = st.Write("b", []byte("replacement"))
		wantViolation(t, name, got, "b", "Write")

		durable := make(chan error, 1)
		st.WriteAsync("c", buf, func(err error) { durable <- err })
		<-durable // the committer reads buf until then: an earlier write would be a data race too
		buf[2] = 'N'
		_ = st.Delete("c")
		wantViolation(t, name, got, "c", "Delete")

		_ = st.Write("d", []byte("returned"))
		back, _ := st.Read("d")
		back[0] = 'R'
		_ = st.Sync()
		if cs, ok := st.(*checkedStore); ok {
			cs.Verify("Verify")
		} else {
			st.(*checkedWAL).Verify("Verify")
		}
		// "a" was flagged once already but is still modified; Verify
		// reports every key that is.
		if len(*got) != 2 || !strings.Contains(strings.Join(*got, "\n"), `"d"`) {
			t.Errorf("%s: Verify reported %q, want a and d", name, *got)
		}
		*got = nil

		// The well-behaved caller: one buffer written under two keys,
		// re-written under the first, read back, deleted. Nothing.
		clean, cleanGot := checkedOver(NewMemory())
		shared := []byte("immutable")
		_ = clean.Write("x", shared)
		_ = clean.Write("y", shared)
		_ = clean.Write("x", shared)
		clean.Read("x")
		_ = clean.Delete("y")
		_ = clean.Close()
		if len(*cleanGot) != 0 {
			t.Errorf("%s: a caller that kept the contract was reported: %q", name, *cleanGot)
		}
	}
}

// Close verifies everything still remembered.
func TestCheckedVerifiesAtClose(t *testing.T) {
	st, got := checkedOver(openTestWAL(t, t.TempDir(), WALOptions{}))
	first, second := []byte("first"), []byte("second")
	_ = st.Write("f", first)
	_ = st.Write("s", second)
	first[0], second[0] = 'F', 'S'
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if joined := strings.Join(*got, "\n"); len(*got) != 2 ||
		!strings.Contains(joined, `"f"`) || !strings.Contains(joined, `"s"`) || !strings.Contains(joined, "Close") {
		t.Fatalf("violations at Close: %q, want f and s", *got)
	}
}

// A value that reached the key behind the wrapper's back — written to
// the engine directly, or recovered from disk by a reopen — is a
// different slice, adopted at its first Read rather than flagged; and
// the wrapper forwards what the runtime looks for on the wal engine.
func TestCheckedAdoptsForeignValuesAndForwardsStats(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	st, got := checkedOver(w)
	if _, ok := st.(interface{ Stats() WALStats }); !ok {
		t.Fatal("checked wal lost Stats")
	}
	if _, ok := Checked(NewMemory(), nil).(interface{ Stats() WALStats }); ok {
		t.Fatal("checked memory store grew WAL stats")
	}
	_ = st.Write("k", []byte("via the wrapper"))
	st.Read("k")
	_ = w.Write("k", []byte("behind its back")) // another writer, same key
	if v, _ := st.Read("k"); string(v) != "behind its back" {
		t.Fatalf("read %q", v)
	}
	if len(*got) != 0 {
		t.Fatalf("a foreign write was flagged as a modification: %q", *got)
	}
}
