package cluster

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/vtime"
)

// TestBindingFollowsTheFile: a handle calls its bound storage site until
// the catalog moves on.  An ownership move re-resolves the next call on
// the same handle to the new home; the old home, which lost the file,
// refuses a call that still reaches it; and once the file is removed the
// handle gets an error, not a stale success.
func TestBindingFollowsTheFile(t *testing.T) {
	w := newMoveWorld(t, Config{Clock: vtime.NewVirtual()})
	s2 := w.cl.Site(2)
	if _, _, err := s2.Stat(w.f); err != nil {
		t.Fatal(err)
	}
	if w.f.Site() != 1 {
		t.Fatalf("handle bound to %v, want va's mount site1", w.f.Site())
	}
	stale := *w.f

	w.heat(t) // site 2's transactions move va/f to site 2
	if home, _ := w.cl.StorageSite(w.id); home != 2 {
		t.Fatalf("va/f homed at %v after the heat, want site2", home)
	}
	got, err := s2.Read(w.f, w.pid, "", 0, len(w.data))
	if err != nil || !bytes.Equal(got, w.data) {
		t.Fatalf("read through the moved handle = %q, %v; want %q", got, err, w.data)
	}
	if w.f.Site() != 2 || w.f.epoch != w.cl.epoch.Load() {
		t.Fatalf("handle bound to %v at epoch %d, want site2 at %d", w.f.Site(), w.f.epoch, w.cl.epoch.Load())
	}

	// A call that reaches the old home - bound there, as if the move
	// landed while its request was in flight - is refused.
	stale.epoch = w.cl.epoch.Load()
	if _, err := s2.Read(&stale, w.pid, "", 0, 1); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("read at the old home = %v, want ErrNoSuchFile", err)
	}

	must(t, s2.Close(w.f, w.pid, ""))
	must(t, s2.Remove(w.id))
	if got, err := s2.Read(w.f, w.pid, "", 0, len(w.data)); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("read of a removed file = %q, %v; want ErrNoSuchFile", got, err)
	}
	if w.f.Site() != 1 {
		t.Fatalf("handle of the removed file bound to %v, want va's mount site1", w.f.Site())
	}
}
