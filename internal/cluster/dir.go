package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/fs"
	"repro/internal/shadow"
	"repro/internal/simdisk"
	"repro/internal/trace"
)

// The per-volume directory maps file names to inode numbers.  It is
// stored in the volume's inode 0 and updated with immediate single-file
// commits under the reserved "kernel:dir" owner - directory updates are
// deliberately NOT part of any transaction, the section 3.4 exception:
// "directories in a filesystem should not remain locked for the duration
// of a transaction", and concurrent create collisions surface
// immediately rather than at commit time.
const dirOwner shadow.Owner = "kernel:dir"

// initDirectory creates the directory file in inode 0 of a fresh volume:
// its first write makes the inode durable.
func (vs *volState) initDirectory() error {
	ino, err := vs.vol.ReserveInode()
	if err != nil {
		return err
	}
	if ino != 0 {
		return fmt.Errorf("cluster: directory must be inode 0, got %d", ino)
	}
	vs.dirMu.Lock()
	defer vs.dirMu.Unlock()
	vs.dirIno = &fs.Inode{Ino: 0, Indirect: -1}
	vs.dir = make(map[string]int)
	return vs.writeDirLocked()
}

// loadDirectory reads the directory after a volume reload and keeps its
// committed inode.
func (vs *volState) loadDirectory() error {
	f, err := shadow.Open(vs.vol, 0)
	if err == nil {
		vs.dir, err = decodeDirectory(f)
	}
	if err != nil {
		return fmt.Errorf("cluster: directory of %q: %w", vs.name, err)
	}
	vs.dirIno = f.Inode()
	return nil
}

// writeDirLocked persists the directory map: the encoding is rewritten
// whole, shadow-style, in one forced write (fs.RewriteFile).  Caller holds
// vs.dirMu.
func (vs *volState) writeDirLocked() error {
	vs.dirNames = vs.dirNames[:0]
	for name := range vs.dir {
		vs.dirNames = append(vs.dirNames, name)
	}
	slices.Sort(vs.dirNames)
	vs.dirBuf = appendDirectory(vs.dirBuf[:0], vs.dirNames, vs.dir)
	if tr := vs.vol.Tracer(); tr != nil {
		obj := fmt.Sprintf("%s#0", vs.vol.Name())
		for off := 0; off < len(vs.dirBuf); off += vs.vol.PageSize() {
			tr.Record(trace.PageWrite, string(dirOwner), obj, int64(off/vs.vol.PageSize()))
		}
	}
	return vs.vol.RewriteFile(vs.dirIno, vs.dirBuf)
}

// AppendDirectory appends a directory's one encoding to dst: the entry
// count, then each entry in name order as a uvarint-length-prefixed name
// and a uvarint inode number.
func AppendDirectory(dst []byte, dir map[string]int) []byte {
	return appendDirectory(dst, slices.Sorted(maps.Keys(dir)), dir)
}

// appendDirectory is AppendDirectory with dir's names given, sorted.
func appendDirectory(dst []byte, names []string, dir map[string]int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = binary.AppendUvarint(append(dst, name...), uint64(dir[name]))
	}
	return dst
}

// ReadDirectory decodes the directory a volume's inode 0 holds on stable
// storage.
func ReadDirectory(vol *fs.Volume) (map[string]int, error) {
	f, err := shadow.Open(vol, 0)
	if err != nil {
		return nil, err
	}
	return decodeDirectory(f)
}

// decodeDirectory decodes the directory file f's committed contents.
// Bytes past the last entry are ignored.
func decodeDirectory(f *shadow.File) (map[string]int, error) {
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

// dirCreate allocates an inode for name and persists the entry.  With
// reserve the inode stays in memory until its file's first write
// (fs.ReserveInode): the entry then reaches the disk first, the dangling
// case reclaimFile handles.
func (vs *volState) dirCreate(name string, reserve bool) (int, error) {
	vs.dirMu.Lock()
	defer vs.dirMu.Unlock()
	if _, ok := vs.dir[name]; ok {
		return 0, fmt.Errorf("%w: %s/%s", ErrFileExists, vs.name, name)
	}
	alloc := vs.vol.AllocInode
	if reserve {
		alloc = vs.vol.ReserveInode
	}
	ino, err := alloc()
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
	ino, ok := vs.dirEntry(name)
	if !ok {
		return 0, fmt.Errorf("%w: %s/%s", ErrNoSuchFile, vs.name, name)
	}
	return ino, nil
}

// dirEntry is dirLookup for a caller that expects a miss.
func (vs *volState) dirEntry(name string) (int, bool) {
	vs.dirMu.Lock()
	defer vs.dirMu.Unlock()
	ino, ok := vs.dir[name]
	return ino, ok
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
// handleRemove's crash-safe order: the directory entry first, then the
// inode and its pages in one write (fs.ReleaseInode).  A dangling entry -
// a crash made it durable while its inode (in memory until the file's
// first write) was lost - has no storage to free: only the name goes, or
// the reloaded allocator would hand the inode number to a second file and
// leave two entries claiming it.
func (vs *volState) reclaimFile(name string) error {
	ino, err := vs.dirLookup(name)
	if err != nil {
		return err
	}
	if err := vs.dirRemove(name); err != nil {
		return err
	}
	return vs.vol.ReleaseInode(ino)
}

// committedImage reads the committed contents of path's local primary
// copy - what an install ships (ship) - through the one handle this site
// has on the file (handleInstall), opening one only if there is none.  A
// failed disk is its site's crash, which the kernel otherwise learns of
// only at its next I/O, and the image may come from memory: so the disk
// is asked first, and a crashed site ships nothing - its log may still
// hold records its restart will replay against this copy.
func (k *incarnation) committedImage(path string) ([]byte, error) {
	vs, err := k.volFor(path)
	if err != nil {
		return nil, err
	}
	if vs.vol.Disk().Crashed() {
		return nil, fmt.Errorf("cluster: shipping %s: %w", path, simdisk.ErrCrashed)
	}
	_, name, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	k.mu.Lock()
	f := vs.files[name]
	if of := k.open[path]; of != nil {
		f = of.file.Load()
	}
	k.mu.Unlock()
	if f == nil {
		ino, err := vs.dirLookup(name)
		if err != nil {
			return nil, err
		}
		if f, err = shadow.Open(vs.vol, ino); err != nil {
			return nil, err
		}
	}
	return f.CommittedImage()
}

// installFile lands a shipped image as name's copy here when this site has
// no handle on it: over the file if its entry exists, else as a new file
// in two forced writes - the entry, its inode reserved, then the image and
// its inode in one batch (shadow.Create, which keeps data).  Nothing reads
// the new file before the catalog's verdict, so a crash between leaves the
// dangling entry or torn batch the boot rule reclaims.
func (vs *volState) installFile(name string, data []byte, oneForce bool) (*shadow.File, error) {
	if ino, ok := vs.dirEntry(name); ok {
		f, err := shadow.Open(vs.vol, ino)
		if err != nil {
			return nil, err
		}
		return f, installImage(f, data, oneForce)
	}
	ino, err := vs.dirCreate(name, true)
	if err != nil {
		return nil, err
	}
	return shadow.Create(vs.vol, ino, data)
}

// installImage commits a shipped committed image over f, in one force
// with oneForce (shadow.File.CommitWith).
func installImage(f *shadow.File, data []byte, oneForce bool) error {
	if len(data) == 0 {
		return nil
	}
	if _, err := f.WriteAt(replOwner, data, 0); err != nil {
		return err
	}
	return f.CommitWith(replOwner, oneForce)
}
