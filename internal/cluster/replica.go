package cluster

import (
	"errors"
	"fmt"

	"repro/internal/shadow"
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
}

func (r replSyncReq) WireSize() int { return 64 + len(r.Data) }

type replUpdatingReq struct{ Path string }

type replPullReq struct {
	Volume  string
	Replica simnet.SiteID
}

type replRemoveReq struct{ Path string }

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
	if _, err := rs.kernel().addVolume(&disk{vol: volName, replica: true}); err != nil {
		return err
	}

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
		if err := ps.kernel().pushFileToReplica(site, volName+"/"+name); err != nil {
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

// newReplicaState wraps a replica volume just formatted or reloaded.  Every
// file a reload finds is marked service-migrated: reads forward to the
// primary, which is always correct, until a propagation refreshes it.
func newReplicaState(vs *volState) *replicaState {
	rep := &replicaState{vs: vs, updating: make(map[string]bool), files: make(map[string]*shadow.File)}
	for _, name := range vs.dirList() {
		rep.updating[vs.name+"/"+name] = true
	}
	return rep
}

// handleReplRemove mirrors a file removal onto the local replica.
func (k *incarnation) handleReplRemove(req replRemoveReq) error {
	rep := k.replicaFor(req.Path)
	if rep == nil {
		return fmt.Errorf("cluster: %v holds no replica for %q", k.id, req.Path)
	}
	_, name, err := splitPath(req.Path)
	if err != nil {
		return err
	}
	// A file never synced here has nothing to free.
	if err := rep.vs.reclaimFile(name); err != nil && !errors.Is(err, ErrNoSuchFile) {
		return err
	}
	k.mu.Lock()
	delete(rep.files, req.Path)
	delete(rep.updating, req.Path)
	k.mu.Unlock()
	return nil
}

// notifyReplicaRemove fans a removal out to the volume's replicas, best
// effort (a down replica drops the file during its restart resync).
func (k *incarnation) notifyReplicaRemove(path, volName string) {
	for _, site := range k.cl.ReplicaSites(volName) {
		k.ep.Call(site, "replremove", replRemoveReq{Path: path}) //nolint:errcheck
	}
}

// handleReplPull runs at a primary: a restarting replica asks for a full
// resynchronization of the volume.
func (k *incarnation) handleReplPull(req replPullReq) error {
	vs, err := k.volByName(req.Volume)
	if err != nil {
		return err
	}
	for _, name := range vs.dirList() {
		if err := k.pushFileToReplica(req.Replica, req.Volume+"/"+name); err != nil {
			return err
		}
	}
	return nil
}

// resyncReplicas runs after a replica site restarts: a full pull of each
// replicated volume refreshes the local copies, which then resume local
// service.  An unreachable primary leaves the conservative forwarding
// (newReplicaState) in place.
func (k *incarnation) resyncReplicas() {
	for _, vs := range k.volStates(true) {
		if !vs.disk.replica {
			continue
		}
		if primary, err := k.cl.StorageSite(vs.name + "/."); err == nil {
			k.ep.Call(primary, "replpull", replPullReq{Volume: vs.name, Replica: k.id}) //nolint:errcheck // primary down: keep forwarding
		}
	}
}

// replicaFor returns the site's replica of the path's volume, if any.
func (k *incarnation) replicaFor(path string) *replicaState {
	volName, _, err := splitPath(path)
	if err != nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.replicas[volName]
}

// handleReplSync installs propagated file contents on the local replica
// and re-enables local reading of the path.
func (k *incarnation) handleReplSync(req replSyncReq) error {
	rep := k.replicaFor(req.Path)
	if rep == nil {
		return fmt.Errorf("cluster: %v holds no replica for %q", k.id, req.Path)
	}
	_, name, err := splitPath(req.Path)
	if err != nil {
		return err
	}
	f, err := rep.vs.openOrCreate(name)
	if err != nil {
		return err
	}
	if err := installImage(f, req.Data); err != nil {
		return err
	}
	k.mu.Lock()
	delete(rep.updating, req.Path)
	rep.files[req.Path] = f // refreshed handle serves subsequent local reads
	k.mu.Unlock()
	return nil
}

// handleReplUpdating marks a path as open-for-update at the primary:
// local reads forward there until the next replsync.
func (k *incarnation) handleReplUpdating(req replUpdatingReq) error {
	rep := k.replicaFor(req.Path)
	if rep == nil {
		return fmt.Errorf("cluster: %v holds no replica for %q", k.id, req.Path)
	}
	k.mu.Lock()
	rep.updating[req.Path] = true
	k.mu.Unlock()
	return nil
}

// replicaRead serves a read from the local replica when permitted:
// the volume is replicated here and the file's service has not migrated
// to the primary.  It returns (nil, false) when the caller must go
// remote.
func (k *incarnation) replicaRead(fileID string, off int64, n int) ([]byte, bool) {
	rep := k.replicaFor(fileID)
	if rep == nil {
		return nil, false
	}
	if _, moved := k.cl.FileHome(fileID); moved {
		// The primary migrated since this replica last synced; its copy
		// refreshes from the new home on the next propagation, so reads
		// go remote until then.
		return nil, false
	}
	k.mu.Lock()
	migrated := rep.updating[fileID]
	f := rep.files[fileID]
	k.mu.Unlock()
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
		k.mu.Lock()
		rep.files[fileID] = f
		k.mu.Unlock()
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
func (k *incarnation) markOpenForUpdate(of *openFile) {
	k.mu.Lock()
	if of.updateMode {
		k.mu.Unlock()
		return
	}
	of.updateMode = true
	k.mu.Unlock()
	for _, site := range k.cl.ReplicaSites(of.vs.name) {
		k.ep.Call(site, "replupdating", replUpdatingReq{Path: of.id}) //nolint:errcheck // unreachable replicas serve stale data, as Locus allowed
	}
}

// maybeSyncReplicas propagates the committed contents to replicas once a
// file has quiesced (no uncommitted owners, no live locks - a sticky lease
// is a cached right to re-acquire, not a holder) and clears the
// open-for-update migration.  A volume without replicas has nobody to
// push to: its lock list is not consulted, and the flag clears as soon as
// nothing is uncommitted, for the next write or lock to raise again.
func (k *incarnation) maybeSyncReplicas(of *openFile) {
	k.mu.Lock()
	wasUpdating := of.updateMode
	k.mu.Unlock()
	if !wasUpdating || of.file.Modified() {
		return
	}
	replicas := k.cl.ReplicaSites(of.vs.name)
	if len(replicas) > 0 && of.locks.Held(false) {
		return
	}
	k.mu.Lock()
	of.updateMode = false
	k.mu.Unlock()
	for _, site := range replicas {
		k.pushFileToReplica(site, of.id) //nolint:errcheck // unreachable replicas stay stale until the next push
	}
}

// pushFileToReplica ships a file's committed contents to one replica.
func (k *incarnation) pushFileToReplica(site simnet.SiteID, path string) error {
	_, _, data, err := k.committedImage(path)
	if err != nil {
		return err
	}
	_, err = k.ep.Call(site, "replsync", replSyncReq{Path: path, Data: data})
	return err
}
