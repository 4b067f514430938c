package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"

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
	f, err := shadow.Open(vs.vol, 0)
	if err != nil {
		return fmt.Errorf("cluster: open directory of %q: %w", vs.name, err)
	}
	buf := make([]byte, f.CommittedSize())
	if _, err := f.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("cluster: read directory of %q: %w", vs.name, err)
	}
	vs.dirMu.Lock()
	defer vs.dirMu.Unlock()
	vs.dir = make(map[string]int)
	if len(buf) == 0 {
		return nil
	}
	if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(&vs.dir); err != nil {
		return fmt.Errorf("cluster: decode directory of %q: %w", vs.name, err)
	}
	return nil
}

// writeDirLocked persists the directory map with an immediate commit.
// Caller holds vs.dirMu.
func (vs *volState) writeDirLocked() error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(vs.dir); err != nil {
		return err
	}
	f, err := shadow.Open(vs.vol, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(dirOwner, buf.Bytes(), 0); err != nil {
		return err
	}
	return f.Commit(dirOwner)
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
	out := make([]string, 0, len(vs.dir))
	for n := range vs.dir {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
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
// copy - what a replica sync or an ownership move ships.
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
