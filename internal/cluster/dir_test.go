package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
	"testing"

	"repro/internal/fs"
	"repro/internal/shadow"
	"repro/internal/simdisk"
)

// TestDirectoryEncoding: a directory has one encoding, never longer than
// gob's (so never more pages), and it reads back through the volume -
// past the stale tail a shrinking rewrite leaves, and refusing a cut-off
// entry.  Inode numbers straddle the one- and two-byte varint widths.
func TestDirectoryEncoding(t *testing.T) {
	vol, err := fs.Format("v", simdisk.New("d", 512, 1024, nil), fs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ino, err := vol.AllocInode(); err != nil || ino != 0 {
		t.Fatalf("directory inode = %d, %v", ino, err)
	}
	write := func(buf []byte) {
		t.Helper()
		f, err := shadow.Open(vol, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(dirOwner, buf, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Commit(dirOwner); err != nil {
			t.Fatal(err)
		}
	}
	big := map[string]int{}
	for i := 0; i < 300; i++ {
		big[fmt.Sprintf("file-%03d", i)] = i
	}
	write(AppendDirectory(nil, big))
	for _, n := range []int{300, 130, 64, 12, 1, 0} {
		dir := map[string]int{}
		for i := 0; i < n; i++ {
			dir[fmt.Sprintf("file-%03d", i)] = i
		}
		enc := AppendDirectory(nil, dir)
		for range 20 {
			if !bytes.Equal(AppendDirectory(nil, maps.Clone(dir)), enc) {
				t.Fatalf("%d entries: two encodings of one directory", n)
			}
		}
		var g bytes.Buffer
		if err := gob.NewEncoder(&g).Encode(dir); err != nil {
			t.Fatal(err)
		}
		if len(enc) > g.Len() {
			t.Errorf("%d entries: %d bytes, gob %d", n, len(enc), g.Len())
		}
		write(enc) // over the longer encoding before it
		got, err := ReadDirectory(vol)
		if err != nil || !maps.Equal(got, dir) {
			t.Fatalf("%d entries: read back %d entries, %v", n, len(got), err)
		}
	}
	if vol, err = fs.Format("w", simdisk.New("e", 512, 1024, nil), fs.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := vol.AllocInode(); err != nil {
		t.Fatal(err)
	}
	enc := AppendDirectory(nil, map[string]int{"a": 1, "b": 200})
	write(enc[:len(enc)-1])
	if got, err := ReadDirectory(vol); err == nil {
		t.Fatalf("a cut-off entry decoded as %v", got)
	}
}
