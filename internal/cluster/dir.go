package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/fs"
	"repro/internal/shadow"
)

// The per-volume directory maps file names to inode numbers.  It is
// stored in the volume's inode 0 and updated with immediate single-file
// commits under the reserved "kernel:dir" owner - directory updates are
// deliberately NOT part of any transaction, the section 3.4 exception:
// "directories in a filesystem should not remain locked for the duration
// of a transaction", and concurrent create collisions surface
// immediately rather than at commit time.
const dirOwner shadow.Owner = "kernel:dir"

// initDirectory creates the directory file in inode 0 of a fresh volume.
func (vs *volState) initDirectory() error {
	ino, err := vs.vol.AllocInode()
	if err != nil {
		return err
	}
	if ino != 0 {
		return fmt.Errorf("cluster: directory must be inode 0, got %d", ino)
	}
	vs.dirMu.Lock()
	defer vs.dirMu.Unlock()
	vs.dir = make(map[string]int)
	return vs.writeDirLocked()
}

// loadDirectory reads the directory after a volume reload.
func (vs *volState) loadDirectory() error {
	dir, err := ReadDirectory(vs.vol)
	if err != nil {
		return fmt.Errorf("cluster: directory of %q: %w", vs.name, err)
	}
	vs.dirMu.Lock()
	defer vs.dirMu.Unlock()
	vs.dir = dir
	return nil
}

// writeDirLocked persists the directory map with an immediate commit.
// Caller holds vs.dirMu.
func (vs *volState) writeDirLocked() error {
	f, err := shadow.Open(vs.vol, 0)
	if err != nil {
		return err
	}
	vs.dirBuf = AppendDirectory(vs.dirBuf[:0], vs.dir)
	if _, err := f.WriteAt(dirOwner, vs.dirBuf, 0); err != nil {
		return err
	}
	return f.Commit(dirOwner)
}

// AppendDirectory appends a directory's one encoding to dst: the entry
// count, then each entry in name order as a uvarint-length-prefixed name
// and a uvarint inode number.
func AppendDirectory(dst []byte, dir map[string]int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(dir)))
	for _, name := range slices.Sorted(maps.Keys(dir)) {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = binary.AppendUvarint(append(dst, name...), uint64(dir[name]))
	}
	return dst
}

// ReadDirectory decodes the directory a volume's inode 0 holds on stable
// storage.  Bytes past the last entry - the tail a shrinking rewrite left
// in place - are ignored.
func ReadDirectory(vol *fs.Volume) (map[string]int, error) {
	f, err := shadow.Open(vol, 0)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, f.CommittedSize())
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	dir, bad := make(map[string]int), false
	next := func() uint64 {
		v, k := binary.Uvarint(buf)
		bad = bad || k <= 0
		buf = buf[max(k, 0):]
		return v
	}
	for n := next(); !bad && n > 0; n-- {
		if l := next(); !bad && l <= uint64(len(buf)) {
			name := string(buf[:l])
			buf = buf[l:]
			dir[name] = int(next())
		} else {
			bad = true
		}
	}
	if bad {
		return nil, errors.New("cluster: directory encoding truncated")
	}
	return dir, nil
}

// dirCreate allocates an inode for name and persists the entry.
func (vs *volState) dirCreate(name string) (int, error) {
	vs.dirMu.Lock()
	defer vs.dirMu.Unlock()
	if _, ok := vs.dir[name]; ok {
		return 0, fmt.Errorf("%w: %s/%s", ErrFileExists, vs.name, name)
	}
	ino, err := vs.vol.AllocInode()
	if err != nil {
		return 0, err
	}
	vs.dir[name] = ino
	if err := vs.writeDirLocked(); err != nil {
		delete(vs.dir, name)
		return 0, err
	}
	return ino, nil
}

// dirLookup resolves name to an inode number.
func (vs *volState) dirLookup(name string) (int, error) {
	vs.dirMu.Lock()
	defer vs.dirMu.Unlock()
	ino, ok := vs.dir[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s/%s", ErrNoSuchFile, vs.name, name)
	}
	return ino, nil
}

// dirRemove deletes the entry (the inode is freed by the caller once its
// pages are released).
func (vs *volState) dirRemove(name string) error {
	vs.dirMu.Lock()
	defer vs.dirMu.Unlock()
	if _, ok := vs.dir[name]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNoSuchFile, vs.name, name)
	}
	old := vs.dir[name]
	delete(vs.dir, name)
	if err := vs.writeDirLocked(); err != nil {
		vs.dir[name] = old
		return err
	}
	return nil
}

// dirList returns the directory's names, sorted.
func (vs *volState) dirList() []string {
	vs.dirMu.Lock()
	defer vs.dirMu.Unlock()
	return slices.Sorted(maps.Keys(vs.dir))
}

// reclaimFile removes name from the volume and frees its storage, in
// handleRemove's crash-safe order: directory entry first, then pages,
// then the inode.
func (vs *volState) reclaimFile(name string) error {
	ino, err := vs.dirLookup(name)
	if err != nil {
		return err
	}
	node, err := vs.vol.ReadInode(ino)
	if errors.Is(err, fs.ErrFreeInode) {
		// Dangling entry: a crash made the directory entry durable while
		// the inode allocation (in-memory until the first commit) was
		// lost.  There is no storage to free - drop the name, or the
		// reloaded allocator will hand the inode number to a second file
		// and leave two entries claiming it.
		return vs.dirRemove(name)
	}
	if err != nil {
		return err
	}
	if err := vs.dirRemove(name); err != nil {
		return err
	}
	for _, p := range node.Pages {
		if p >= 0 {
			if err := vs.vol.FreePage(p); err != nil {
				return err
			}
		}
	}
	node.Pages = nil
	node.Size = 0
	if err := vs.vol.WriteInode(node); err != nil {
		return err
	}
	return vs.vol.FreeInode(ino)
}

// committedImage reads the committed contents of path's local primary
// copy - what an install ships (ship).
func (k *incarnation) committedImage(path string) (vs *volState, name string, data []byte, err error) {
	if vs, err = k.volFor(path); err != nil {
		return nil, "", nil, err
	}
	if _, name, err = splitPath(path); err != nil {
		return nil, "", nil, err
	}
	ino, err := vs.dirLookup(name)
	if err != nil {
		return nil, "", nil, err
	}
	f, err := shadow.Open(vs.vol, ino)
	if err != nil {
		return nil, "", nil, err
	}
	data = make([]byte, f.CommittedSize())
	if len(data) > 0 {
		if _, err := f.ReadAt(data, 0); err != nil {
			return nil, "", nil, err
		}
	}
	return vs, name, data, nil
}

// openOrCreate opens name on the volume, creating its directory entry
// first when the file is new here.
func (vs *volState) openOrCreate(name string) (*shadow.File, error) {
	ino, err := vs.dirLookup(name)
	if errors.Is(err, ErrNoSuchFile) {
		ino, err = vs.dirCreate(name)
	}
	if err != nil {
		return nil, err
	}
	return shadow.Open(vs.vol, ino)
}

// installImage commits a shipped committed image over f.
func installImage(f *shadow.File, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if _, err := f.WriteAt(replOwner, data, 0); err != nil {
		return err
	}
	return f.Commit(replOwner)
}
