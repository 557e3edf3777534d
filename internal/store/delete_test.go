package store

import (
	"errors"
	"testing"
)

// The staged delete, on every engine and wrapper: the key is gone for
// readers as soon as DeleteAsync returns, done runs exactly once when
// the delete is durable, staging order is commit order across writes
// and deletes, and a reopened directory does not resurrect the key.
func TestDeleteAsyncOnEveryEngine(t *testing.T) {
	for name, st := range engines(t) {
		if err := st.Write("gone", []byte("v")); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var order []string
		done := make(chan string, 3)
		note := func(what string) func(error) {
			return func(err error) {
				if err != nil {
					t.Errorf("%s: %s: %v", name, what, err)
				}
				done <- what
			}
		}
		st.WriteAsync("kept", []byte("v"), note("write kept"))
		st.DeleteAsync("gone", note("delete gone"))
		st.DeleteAsync("never-there", note("delete absent")) // a no-op, but still completed
		if _, ok := st.Read("gone"); ok {
			t.Errorf("%s: a staged delete is not visible to the next Read", name)
		}
		for range 3 {
			order = append(order, <-done)
		}
		if order[0] != "write kept" || order[1] != "delete gone" || order[2] != "delete absent" {
			t.Errorf("%s: completions ran as %v, want staging order", name, order)
		}
		if keys := st.Keys(""); len(keys) != 1 || keys[0] != "kept" {
			t.Errorf("%s: keys %v after the commit, want [kept]", name, keys)
		}
	}

	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	_ = w.Write("a", []byte("1"))
	_ = w.Write("b", []byte("2"))
	w.DeleteAsync("a", func(err error) {
		if err != nil {
			t.Errorf("delete a: %v", err)
		}
	})
	if err := w.Close(); err != nil { // flushes what is staged
		t.Fatal(err)
	}
	if keys := openTestWAL(t, dir, WALOptions{}).Keys(""); len(keys) != 1 || keys[0] != "b" {
		t.Fatalf("reopened wal holds %v, want [b]: a staged delete must survive a restart", keys)
	}
}

// A faulted staged delete fails like Delete does: the key stays for a
// later pass, and the error says the fault was injected.
func TestDeleteAsyncUnderFaults(t *testing.T) {
	plan := &FaultPlan{}
	st := WithFaults(NewMemory(), plan)
	_ = st.Write("k", []byte("v"))
	plan.TornWrites(1) // one-shot: the next durable operation
	var got error
	st.DeleteAsync("k", func(err error) { got = err })
	if !errors.Is(got, ErrInjected) {
		t.Fatalf("torn delete completed with %v, want ErrInjected", got)
	}
	if _, ok := st.Read("k"); !ok {
		t.Fatal("a failed delete removed the key")
	}
	st.DeleteAsync("k", func(err error) { got = err })
	if got != nil {
		t.Fatalf("the pass after the fault: %v", got)
	}
	if _, ok := st.Read("k"); ok {
		t.Fatal("the key survived a successful delete")
	}
	plan.FailCommits(1) // sticky
	_ = st.Write("k2", nil)
	st.DeleteAsync("k2", func(err error) { got = err })
	if !errors.Is(got, ErrInjected) {
		t.Fatalf("delete on a broken disk completed with %v, want ErrInjected", got)
	}
}

// The checker verifies a value on its way out through the staged path
// exactly as through Delete.
func TestCheckedVerifiesAtDeleteAsync(t *testing.T) {
	for name, inner := range engines(t) {
		st, got := checkedOver(inner)
		buf := []byte("handed over")
		_ = st.Write("k", buf)
		_ = st.Sync()
		buf[0] = 'H'
		done := make(chan error, 1)
		st.DeleteAsync("k", func(err error) { done <- err })
		<-done
		wantViolation(t, name, got, "k", "DeleteAsync")
		_ = st.Write("clean", []byte("untouched"))
		st.DeleteAsync("clean", func(err error) { done <- err })
		<-done
		if len(*got) != 0 {
			t.Errorf("%s: an unmodified value was reported at DeleteAsync: %q", name, *got)
		}
	}
}
