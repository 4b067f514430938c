package cluster

import (
	"errors"
	"fmt"

	"repro/internal/fs"
	"repro/internal/shadow"
	"repro/internal/simdisk"
	"repro/internal/simnet"
)

// Replication, per the end of section 5.2.  A volume may have read-only
// replicas at other sites.  Reads are served by the closest available
// storage site - the local replica when there is one.  When a file is
// opened for update (a write or a record-locking request), storage-site
// service migrates to the primary update site: the lock list lives there
// and replicas forward reads there until the file quiesces, at which
// point the primary propagates the committed contents back to the
// replicas and local reading resumes.
//
// Replication is by logical file content (path + bytes), not physical
// page numbers: each replica lays the file out on its own volume.  As in
// Locus, a replica that cannot be reached during propagation simply
// misses the update; it serves its last-synced committed state until the
// next successful propagation (optimistic availability - Locus relied on
// reconciliation for partitioned operation, which is out of scope here).

// replOwner commits propagated contents on replica volumes.
const replOwner shadow.Owner = "kernel:repl"

// Replication payloads.

type replSyncReq struct {
	Path string
	Data []byte
	Size int64
}

func (r replSyncReq) WireSize() int { return 64 + len(r.Data) }

type replUpdatingReq struct{ Path string }

type replPullReq struct {
	Volume  string
	Replica simnet.SiteID
}

type replRemoveReq struct{ Path string }

// newReplicaDisk builds the disk backing a replica volume.
func newReplicaDisk(c *Cluster, volName string, site simnet.SiteID) *simdisk.Disk {
	d := simdisk.New(fmt.Sprintf("%s@%v", volName, site), c.cfg.VolumePages, c.cfg.PageSize, c.st)
	d.SetClock(c.cfg.Clock)
	return d
}

// formatReplica formats a replica volume on its disk.
func formatReplica(name string, disk *simdisk.Disk) (*fs.Volume, error) {
	return fs.Format(name, disk, fs.Options{})
}

// AddReplica creates a read-only replica of an existing volume at another
// site and synchronizes the current committed contents.
func (c *Cluster) AddReplica(volName string, site simnet.SiteID) error {
	c.mu.Lock()
	primary, ok := c.mounts[volName]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchVolume, volName)
	}
	if primary == site {
		return fmt.Errorf("cluster: %q is already primary at %v", volName, site)
	}
	rs := c.Site(site)
	if rs == nil {
		return fmt.Errorf("cluster: no site %v", site)
	}
	rs.mu.Lock()
	if _, dup := rs.replicas[volName]; dup {
		rs.mu.Unlock()
		return fmt.Errorf("cluster: %q already replicated at %v", volName, site)
	}
	rs.mu.Unlock()

	// Build the replica volume on its own disk.
	disk := newReplicaDisk(c, volName, site)
	vol, err := formatReplica(volName, disk)
	if err != nil {
		return err
	}
	vol.SetClock(c.cfg.Clock)
	vs := &volState{name: volName, disk: disk, vol: vol}
	vs.dirMu.SetClock(c.cfg.Clock)
	if err := vs.initDirectory(); err != nil {
		return err
	}
	rs.mu.Lock()
	if rs.replicas == nil {
		rs.replicas = make(map[string]*replicaState)
	}
	rs.replicas[volName] = &replicaState{
		vs: vs, updating: make(map[string]bool), files: make(map[string]*shadow.File),
	}
	rs.mu.Unlock()

	c.mu.Lock()
	c.replicaSites[volName] = append(c.replicaSites[volName], site)
	c.mu.Unlock()

	// Initial synchronization: copy every committed file.
	ps := c.Site(primary)
	names, err := ps.List(volName)
	if err != nil {
		return err
	}
	for _, name := range names {
		path := volName + "/" + name
		if err := ps.pushFileToReplica(site, path); err != nil {
			return err
		}
	}
	return nil
}

// ReplicaSites returns the replica sites of a volume.
func (c *Cluster) ReplicaSites(volName string) []simnet.SiteID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]simnet.SiteID(nil), c.replicaSites[volName]...)
}

// replicaState is a site's local copy of a replicated volume.
type replicaState struct {
	vs       *volState
	updating map[string]bool // paths whose service migrated to the primary
	// files caches open read-only handles so repeated replica reads hit
	// the in-memory inode and clean-page cache, as the paper's buffer
	// pool did; entries refresh whenever new contents arrive.
	files map[string]*shadow.File
}

// registerReplicaHandlers installs the replica-side protocol.
func (s *Site) registerReplicaHandlers() {
	s.ep.Handle("replsync", s.wrap(func(req any) (any, error) { return nil, s.handleReplSync(req.(replSyncReq)) }))
	s.ep.Handle("replupdating", s.wrap(func(req any) (any, error) { return nil, s.handleReplUpdating(req.(replUpdatingReq)) }))
	s.ep.Handle("replpull", s.wrap(func(req any) (any, error) { return nil, s.handleReplPull(req.(replPullReq)) }))
	s.ep.Handle("replremove", s.wrap(func(req any) (any, error) { return nil, s.handleReplRemove(req.(replRemoveReq)) }))
}

// handleReplRemove mirrors a file removal onto the local replica.
func (s *Site) handleReplRemove(req replRemoveReq) error {
	rep := s.replicaFor(req.Path)
	if rep == nil {
		return fmt.Errorf("cluster: %v holds no replica for %q", s.id, req.Path)
	}
	_, name, err := splitPath(req.Path)
	if err != nil {
		return err
	}
	// A file never synced here has nothing to free.
	if err := rep.vs.reclaimFile(name); err != nil && !errors.Is(err, ErrNoSuchFile) {
		return err
	}
	s.mu.Lock()
	delete(rep.files, req.Path)
	delete(rep.updating, req.Path)
	s.mu.Unlock()
	return nil
}

// notifyReplicaRemove fans a removal out to the volume's replicas, best
// effort (a down replica drops the file during its restart resync).
func (s *Site) notifyReplicaRemove(path, volName string) {
	for _, site := range s.cl.ReplicaSites(volName) {
		s.ep.Call(site, "replremove", replRemoveReq{Path: path}) //nolint:errcheck
	}
}

// handleReplPull runs at a primary: a restarting replica asks for a full
// resynchronization of the volume.
func (s *Site) handleReplPull(req replPullReq) error {
	vs, err := s.volByName(req.Volume)
	if err != nil {
		return err
	}
	for _, name := range vs.dirList() {
		if err := s.pushFileToReplica(req.Replica, req.Volume+"/"+name); err != nil {
			return err
		}
	}
	return nil
}

// resyncReplicas runs after a replica site restarts: every replicated
// file is marked service-migrated (reads forward to the primary, which is
// always correct), then a full pull refreshes the local copies; files
// refreshed by the pull resume local service.  An unreachable primary
// leaves the conservative forwarding in place.
func (s *Site) resyncReplicas() {
	s.mu.Lock()
	reps := make(map[string]*replicaState, len(s.replicas))
	for name, rep := range s.replicas {
		reps[name] = rep
	}
	s.mu.Unlock()
	for volName, rep := range reps {
		s.mu.Lock()
		for _, name := range rep.vs.dirList() {
			rep.updating[volName+"/"+name] = true
		}
		s.mu.Unlock()
		primary, err := s.cl.StorageSite(volName + "/.")
		if err != nil {
			continue
		}
		s.ep.Call(primary, "replpull", replPullReq{Volume: volName, Replica: s.id}) //nolint:errcheck // primary down: keep forwarding
	}
}

// replicaFor returns the site's replica of the path's volume, if any.
func (s *Site) replicaFor(path string) *replicaState {
	volName, _, err := splitPath(path)
	if err != nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replicas[volName]
}

// handleReplSync installs propagated file contents on the local replica
// and re-enables local reading of the path.
func (s *Site) handleReplSync(req replSyncReq) error {
	rep := s.replicaFor(req.Path)
	if rep == nil {
		return fmt.Errorf("cluster: %v holds no replica for %q", s.id, req.Path)
	}
	_, name, err := splitPath(req.Path)
	if err != nil {
		return err
	}
	f, err := rep.vs.openOrCreateOn(rep.vs.pinVol(), name)
	if err != nil {
		return err
	}
	if err := installImage(f, req.Data); err != nil {
		return err
	}
	s.mu.Lock()
	delete(rep.updating, req.Path)
	rep.files[req.Path] = f // refreshed handle serves subsequent local reads
	s.mu.Unlock()
	return nil
}

// handleReplUpdating marks a path as open-for-update at the primary:
// local reads forward there until the next replsync.
func (s *Site) handleReplUpdating(req replUpdatingReq) error {
	rep := s.replicaFor(req.Path)
	if rep == nil {
		return fmt.Errorf("cluster: %v holds no replica for %q", s.id, req.Path)
	}
	s.mu.Lock()
	rep.updating[req.Path] = true
	s.mu.Unlock()
	return nil
}

// replicaRead serves a read from the local replica when permitted:
// the volume is replicated here and the file's service has not migrated
// to the primary.  It returns (nil, false) when the caller must go
// remote.
func (s *Site) replicaRead(fileID string, off int64, n int) ([]byte, bool) {
	rep := s.replicaFor(fileID)
	if rep == nil {
		return nil, false
	}
	if _, moved := s.cl.FileHome(fileID); moved {
		// The primary migrated since this replica last synced; its copy
		// refreshes from the new home on the next propagation, so reads
		// go remote until then.
		return nil, false
	}
	s.mu.Lock()
	migrated := rep.updating[fileID]
	f := rep.files[fileID]
	s.mu.Unlock()
	if migrated {
		return nil, false
	}
	if f == nil {
		_, name, err := splitPath(fileID)
		if err != nil {
			return nil, false
		}
		ino, err := rep.vs.dirLookup(name)
		if err != nil {
			return nil, false
		}
		f, err = shadow.Open(rep.vs.vol, ino)
		if err != nil {
			return nil, false
		}
		s.mu.Lock()
		rep.files[fileID] = f
		s.mu.Unlock()
	}
	buf := make([]byte, n)
	m, err := f.ReadAt(buf, off)
	if err != nil {
		return nil, false
	}
	return buf[:m], true
}

// markOpenForUpdate flags the file at its primary and tells every replica
// to forward reads (storage-site service migration).  Idempotent; called
// on the first write or lock of a file on a replicated volume.
func (s *Site) markOpenForUpdate(of *openFile) {
	s.mu.Lock()
	if of.updateMode {
		s.mu.Unlock()
		return
	}
	of.updateMode = true
	s.mu.Unlock()
	for _, site := range s.cl.ReplicaSites(of.vs.name) {
		s.ep.Call(site, "replupdating", replUpdatingReq{Path: of.id}) //nolint:errcheck // unreachable replicas serve stale data, as Locus allowed
	}
}

// maybeSyncReplicas propagates the committed contents to replicas once a
// file has quiesced (no uncommitted owners, no live locks - a sticky lease
// is a cached right to re-acquire, not a holder) and clears the
// open-for-update migration.  A volume without replicas has nobody to
// push to: its lock list is not consulted, and the flag clears as soon as
// nothing is uncommitted, for the next write or lock to raise again.
func (s *Site) maybeSyncReplicas(of *openFile) {
	s.mu.Lock()
	wasUpdating := of.updateMode
	s.mu.Unlock()
	if !wasUpdating || of.file.Modified() {
		return
	}
	replicas := s.cl.ReplicaSites(of.vs.name)
	if len(replicas) > 0 && of.locks.Held(false) {
		return
	}
	s.mu.Lock()
	of.updateMode = false
	s.mu.Unlock()
	for _, site := range replicas {
		s.pushFileToReplica(site, of.id) //nolint:errcheck // unreachable replicas stay stale until the next push
	}
}

// pushFileToReplica ships a file's committed contents to one replica.
func (s *Site) pushFileToReplica(site simnet.SiteID, path string) error {
	_, _, data, err := s.committedImage(path)
	if err != nil {
		return err
	}
	_, err = s.ep.Call(site, "replsync", replSyncReq{Path: path, Data: data, Size: int64(len(data))})
	return err
}
