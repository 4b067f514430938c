package cluster

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/shadow"
	"repro/internal/simnet"
)

// Replication, per the end of section 5.2.  A volume may have read-only
// replicas at other sites.  Reads are served by the closest available
// storage site - the local replica when there is one.  When a file is
// opened for update (a write or a record-locking request), storage-site
// service migrates to the primary update site: the lock list lives there
// and replicas forward reads there until the file quiesces, at which
// point the primary ships the committed contents back to the replicas
// (ship, placement.go) and local reading resumes.
//
// The catalog keeps the books: the primary's open for update advances the
// file's version, a sync's verdict records the version the replica's copy
// then holds, and a replica serves a read itself iff its copy is at the
// file's current version.  Replication is by logical file content (path +
// bytes): each replica lays the file out on its own volume.  As in Locus,
// a replica that cannot be reached misses the update and forwards its
// reads until a later sync lands (optimistic availability; Locus relied on
// reconciliation for partitioned operation, which is out of scope here).

// replOwner commits shipped contents on the volume receiving them.
const replOwner shadow.Owner = "kernel:repl"

type replPullReq struct {
	Volume  string
	Replica simnet.SiteID
}

type replRemoveReq struct{ Path string }

// AddReplica creates a read-only replica of an existing volume at another
// site and ships it the current committed contents.
func (c *Cluster) AddReplica(volName string, site simnet.SiteID) error {
	var err error
	c.mu.Lock()
	primary, ok := c.mounts[volName]
	switch {
	case !ok:
		err = fmt.Errorf("%w: %q", ErrNoSuchVolume, volName)
	case primary == site:
		err = fmt.Errorf("cluster: %q is already primary at %v", volName, site)
	case c.sites[site] == nil:
		err = fmt.Errorf("cluster: no site %v", site)
	case slices.Contains(c.replicas[volName], site):
		err = fmt.Errorf("cluster: %q already replicated at %v", volName, site)
	default:
		c.replicas[volName] = append(c.replicas[volName], site)
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return c.Site(primary).kernel().handleReplPull(replPullReq{Volume: volName, Replica: site})
}

// ReplicaSites returns the replica sites of a volume.
func (c *Cluster) ReplicaSites(volName string) []simnet.SiteID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.replicas[volName])
}

// ReplicaCopy reports whether the catalog records a replica copy of path
// at site - which the single-primary audit must not count as a primary -
// and whether it is at the file's current version, the one case a
// replica serves a read itself.
func (c *Cluster) ReplicaCopy(path string, site simnet.SiteID) (recorded, current bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fc := c.copies[path]; fc != nil {
		v, ok := fc.held[site]
		return ok, ok && v == fc.version
	}
	return false, false
}

// updateCycle begins (advancing its version) or ends path's update cycle
// in the catalog, returning the replica sites of its volume and the
// version a copy shipped to them carries; none for a volume without.
func (c *Cluster) updateCycle(path string, begin bool) ([]simnet.SiteID, uint64) {
	vol, _, _ := splitPath(path)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.replicas[vol]) == 0 {
		return nil, 0
	}
	fc := c.copies[path]
	if fc == nil {
		fc = &fileCopies{held: make(map[simnet.SiteID]uint64)}
		c.copies[path] = fc
	}
	if begin {
		fc.version++
	}
	return c.replicas[vol], fc.version
}

// handleReplRemove drops this site's copy of a removed file: the boot
// rule applied to one path, whose records the removal already erased.
func (k *incarnation) handleReplRemove(req replRemoveReq) error {
	vs, err := k.volFor(req.Path)
	if err != nil || k.cl.holdsCopy(req.Path, k.id) {
		return nil // nothing synced here, or the copy is recorded after all
	}
	_, name, _ := splitPath(req.Path)
	k.mu.Lock()
	delete(vs.files, name)
	k.mu.Unlock()
	if err := vs.reclaimFile(name); !errors.Is(err, ErrNoSuchFile) {
		return err
	}
	return nil
}

// notifyReplicaRemove fans a removal out to the volume's replicas, best
// effort (a down replica's boot rule drops the file when it restarts).
func (k *incarnation) notifyReplicaRemove(path, volName string) {
	for _, site := range k.cl.ReplicaSites(volName) {
		k.ep.Call(site, "replremove", replRemoveReq{Path: path}) //nolint:errcheck
	}
}

// handleReplPull runs at a volume's mount site: it ships a replica - new
// (AddReplica) or restarting (pullBehind) - each copy the catalog records
// it behind on.  A file open for update or locked (an in-doubt
// transaction's retained locks) is skipped, its committed contents about
// to change: its update cycle's end ships it.  The version is read under
// k.mu with that test, as maybeSyncReplicas reads it.
func (k *incarnation) handleReplPull(req replPullReq) error {
	vs, err := k.volByName(req.Volume)
	if err != nil {
		return err
	}
	for _, name := range vs.dirList() {
		path := req.Volume + "/" + name
		k.mu.Lock()
		of, fl := k.open[path], k.locks.Lookup(path)
		busy := of != nil && of.updateMode || fl != nil && fl.Held(false)
		_, version := k.cl.updateCycle(path, false)
		k.mu.Unlock()
		if _, current := k.cl.ReplicaCopy(path, req.Replica); busy || current {
			continue
		}
		if _, err := k.ship(install{path: path, to: req.Replica, version: version}, 0); err != nil {
			return err
		}
	}
	return nil
}

// pullBehind runs after a restart: each volume this site replicates asks
// its mount site for the copies behind here.  An unreachable mount leaves
// them behind, forwarding their reads.
func (k *incarnation) pullBehind() {
	for _, vs := range k.volStates() {
		if vs.disk.mounted || !slices.Contains(k.cl.ReplicaSites(vs.name), k.id) {
			continue
		}
		if primary, err := k.cl.StorageSite(vs.name + "/."); err == nil {
			k.ep.Call(primary, "replpull", replPullReq{Volume: vs.name, Replica: k.id}) //nolint:errcheck // primary down: keep forwarding
		}
	}
}

// replicaRead serves a read from the local replica when the catalog
// records its copy at the file's current version; (nil, false) sends the
// caller remote.  A mount site is never a replica, so its reads never
// consult the catalog.
func (k *incarnation) replicaRead(fileID string, off int64, n int) ([]byte, bool) {
	vs, err := k.volFor(fileID)
	if err != nil || vs.disk.mounted {
		return nil, false
	}
	if _, current := k.cl.ReplicaCopy(fileID, k.id); !current {
		return nil, false
	}
	_, name, _ := splitPath(fileID)
	k.mu.Lock()
	f := vs.files[name]
	k.mu.Unlock()
	if f == nil {
		ino, err := vs.dirLookup(name)
		if err != nil {
			return nil, false
		}
		if f, err = shadow.Open(vs.vol, ino); err != nil {
			return nil, false
		}
		k.mu.Lock()
		if cur := vs.files[name]; cur != nil {
			f = cur // an install got there first: its handle is the one
		} else {
			vs.files[name] = f
		}
		k.mu.Unlock()
	}
	buf := make([]byte, n)
	m, err := f.ReadAt(buf, off)
	if err != nil {
		return nil, false
	}
	return buf[:m], true
}

// markOpenForUpdate begins the file's update cycle at its primary, in the
// same step advancing a replicated file's version so every replica
// forwards its reads (storage-site service migration).  Idempotent;
// called on each write or lock.
func (k *incarnation) markOpenForUpdate(of *openFile) {
	k.mu.Lock()
	if !of.updateMode {
		of.updateMode = true
		sites, _ := k.cl.updateCycle(of.id, true)
		of.replicated = sites != nil
	}
	k.mu.Unlock()
}

// maybeSyncReplicas ends the update cycle once the file has quiesced (no
// uncommitted owners, no live locks - a sticky lease is a cached right to
// re-acquire, not a holder) and ships the committed contents to the
// replicas, at the version read as the cycle ends: one that begins before
// they land leaves them behind.  A volume without replicas has nobody to
// ship to: its lock list is not consulted, and the cycle ends as soon as
// nothing is uncommitted, for the next write or lock to begin again.
func (k *incarnation) maybeSyncReplicas(of *openFile) {
	k.mu.Lock()
	updating, replicated := of.updateMode, of.replicated
	k.mu.Unlock()
	if !updating || of.file.Modified() || replicated && of.locks.Held(false) {
		return
	}
	var sites []simnet.SiteID
	var version uint64
	k.mu.Lock()
	of.updateMode = false
	if replicated {
		sites, version = k.cl.updateCycle(of.id, false)
	}
	k.mu.Unlock()
	for _, site := range sites {
		if site != k.id {
			k.ship(install{path: of.id, to: site, version: version}, 0) //nolint:errcheck // an unreachable replica stays behind until the next sync
		}
	}
}
