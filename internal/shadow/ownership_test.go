package shadow

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/fs"
	"repro/internal/simdisk"
	"repro/internal/stats"
)

const guardPage = 4096 // big enough that one page-sized allocation per run cannot hide

// bigPageFile opens a fresh file on a volume of guardPage-byte pages.
func bigPageFile(t *testing.T, dataPages int) *File {
	t.Helper()
	d := simdisk.New("d0", 1+4+4+dataPages, guardPage, stats.NewSet())
	v, err := fs.Format("vol0", d, fs.Options{NumInodes: 4, LogPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	ino, err := v.AllocInode()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(v, ino)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// heapBytesPerRun is testing.AllocsPerRun for bytes, after one warm-up.
func heapBytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// A steady-state sole-owner write + commit allocates no page image: the
// working buffer becomes the cache image, the image it displaces is the
// next working buffer, and the disk and the inode write reuse theirs.
func TestSoleOwnerWriteCommitAllocatesNoPageImage(t *testing.T) {
	f := bigPageFile(t, 16)
	if _, err := f.WriteAt("init", make([]byte, 2*guardPage), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("init"); err != nil {
		t.Fatal(err)
	}
	rec := []byte("8 bytes.")
	got := heapBytesPerRun(50, func() {
		if _, err := f.WriteAt("a", rec, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Commit("a"); err != nil {
			t.Fatal(err)
		}
	})
	if got >= guardPage/4 {
		t.Errorf("sole-owner write+commit allocates %.0f B per run, want no page-sized (%d B) allocation", got, guardPage)
	}
	// The differencing path takes its merge and previous-version buffers
	// from the same place.
	got = heapBytesPerRun(50, func() {
		if _, err := f.WriteAt("a", rec, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt("b", rec, 64); err != nil {
			t.Fatal(err)
		}
		if err := f.Commit("a"); err != nil {
			t.Fatal(err)
		}
		if err := f.Abort("b"); err != nil {
			t.Fatal(err)
		}
	})
	if got >= guardPage/4 {
		t.Errorf("differencing commit + abort allocates %.0f B per run, want no page-sized (%d B) allocation", got, guardPage)
	}
}

// Handing buffers between working state, cache and spare list never lets
// two roles share one: across commits, aborts, differencing, cache
// eviction and a reread after a crash, every page reads back what was
// last committed to it, and the spare list stays bounded.
func TestBufferHandOffKeepsPagesApart(t *testing.T) {
	const pages = cleanCachePages + 8 // forces evictions
	_, f := newFile(t)
	fill := func(p, gen int) []byte { return bytes.Repeat([]byte{byte(p), byte(gen)}, testPageSize/2) }
	want := make([][]byte, pages)
	verify := func(f *File, when string) {
		t.Helper()
		for p := range want {
			if got := readAll(t, f, int64(p)*testPageSize, testPageSize); !bytes.Equal(got, want[p]) {
				t.Fatalf("%s: page %d reads % x..., want % x...", when, p, got[:4], want[p][:4])
			}
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		if len(f.spare) > cleanCachePages {
			t.Fatalf("%s: %d spare buffers, bound is %d", when, len(f.spare), cleanCachePages)
		}
		seen := map[*byte]string{}
		note := func(buf []byte, role string) {
			if prev, dup := seen[&buf[0]]; dup {
				t.Fatalf("%s: one buffer is both %s and %s", when, prev, role)
			}
			seen[&buf[0]] = role
		}
		for _, b := range f.spare {
			note(b, "spare")
		}
		for _, b := range f.cache {
			note(b, "a cache image")
		}
		for _, st := range f.pages {
			note(st.buf, "a working buffer")
		}
	}
	for gen := 1; gen <= 3; gen++ {
		for p := 0; p < pages; p++ {
			want[p] = fill(p, gen)
			if _, err := f.WriteAt("w", want[p], int64(p)*testPageSize); err != nil {
				t.Fatal(err)
			}
			if p%2 == 0 {
				if err := f.Commit("w"); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := f.Commit("w"); err != nil {
			t.Fatal(err)
		}
		verify(f, "after whole-page commits")

		// Uncommitted scribbles that abort: sole-owner on one page, and
		// beside a co-owner who commits (differencing) on another.
		if _, err := f.WriteAt("x", []byte("scribble"), 3*testPageSize+8); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt("x", []byte("scribble"), 5*testPageSize+8); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt("y", []byte("kept"), 5*testPageSize+100); err != nil {
			t.Fatal(err)
		}
		if err := f.Commit("y"); err != nil {
			t.Fatal(err)
		}
		copy(want[5][100:], "kept")
		if err := f.Abort("x"); err != nil {
			t.Fatal(err)
		}
		verify(f, "after differencing commit and aborts")
	}
	verify(reopen(t, f.Volume(), f), "reopened from stable storage")
}
