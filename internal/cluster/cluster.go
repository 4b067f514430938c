// Package cluster implements the Locus site kernel: the distributed,
// network-transparent layer that glues the simulated network, the volume
// and shadow-page layers, the record lock manager, the process tables,
// and the two-phase commit engine into a running multi-site system.
//
// Each Site is one machine's kernel.  Files live on volumes mounted at a
// storage site; any site operates on any file through the same call
// (network transparency) - the kernel routes the request to the storage
// site over lightweight messages, exactly as Locus does, and the storage
// site keeps the per-file lock lists (Figure 3) and shadow-page working
// state.
//
// The transaction-visible semantics (nesting, rule 1 and 2 retention,
// adoption of uncommitted records) are enforced here at the storage site,
// where they must be atomic with lock grant; package core provides the
// user-facing transaction API on top.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fs"
	"repro/internal/lockmgr"
	"repro/internal/names"
	"repro/internal/placement"
	"repro/internal/proc"
	"repro/internal/shadow"
	"repro/internal/simdisk"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tpc"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Errors returned by cluster operations.
var (
	ErrNoSuchVolume = errors.New("cluster: no such volume")
	ErrNoSuchFile   = errors.New("cluster: no such file")
	ErrFileExists   = errors.New("cluster: file already exists")
	ErrBadPath      = errors.New("cluster: bad path (want volume/name)")
	// ErrSiteDown is what a local call into a dead incarnation gets (a
	// remote one gets no reply at all: registerHandlers' handle).
	ErrSiteDown = errors.New("cluster: site down")
)

// Config tunes the cluster; zero values give the paper's intended design.
type Config struct {
	// PageSize for all volumes (default 1024, the paper's page size).
	PageSize int
	// VolumePages is the number of pages per volume disk (default 512).
	VolumePages int
	// Net configures the simulated network.
	Net simnet.Config
	// DisableLockCache turns off the requesting-site lock cache of
	// section 5.1 (ablation E8): every access re-validates at the
	// storage site.
	DisableLockCache bool
	// PerFilePrepareLogs reproduces footnote 10: one prepare log record
	// per file per transaction instead of one per volume.
	PerFilePrepareLogs bool
	// DoubleLogWrites reproduces footnote 9: two I/Os per log append.
	DoubleLogWrites bool
	// SyncPhase2 makes commit drive phase two synchronously (used by
	// deterministic tests and the I/O-count benchmarks).
	SyncPhase2 bool
	// PrefetchOnLock enables the section 5.2 optimization: granting a
	// record lock prefetches the covered pages into the storage site's
	// buffer cache, so the subsequent data access pays no disk latency.
	PrefetchOnLock bool
	// DiffFromBufferPool enables the footnote-7 optimization: the
	// differencing commit takes the "previous version" of a page from
	// the clean-page buffer pool instead of re-reading stable storage.
	DiffFromBufferPool bool
	// LockWaitTimeout bounds implicit and Wait-mode lock waits; zero
	// means 2s.
	LockWaitTimeout time.Duration
	// RetryInterval spaces each coordinator's automatic phase-two
	// retries to unreachable participants.  Zero disables the timer
	// (RetryPending still works when called directly).
	RetryInterval time.Duration
	// GroupCommitMaxDelay enables the group-commit daemon on every
	// volume's log store: concurrent log writes coalesce into one
	// vectored disk force, and after a flush that carried two or more
	// records the next waits up to this long for companions (a lone
	// record is forced at once).  Zero (the default) keeps the paper's
	// synchronous per-record log writes, so every I/O-count table
	// reproduces.  A batch holds at most fs.DefaultGroupCommitMaxBatch
	// records.
	GroupCommitMaxDelay time.Duration
	// FastPaths enables the commit fast paths of DESIGN.md section 10:
	// participants that did only shared-mode reads vote read-only (no
	// prepare-record force, locks released at prepare, no phase-two
	// message), transactions whose participants all voted read-only skip
	// the commit-record force, and single-site transactions commit with
	// one combined prepare-and-commit message whose prepare-record force
	// is the commit point.  Off (the default) runs the paper-exact
	// protocol, byte-for-byte identical on the wire and on disk.
	FastPaths bool
	// LockLeases enables the sticky lock leases of DESIGN.md section 13:
	// when a transaction at a remote site releases its locks at commit,
	// the storage site retains the coverage as a per-site lease, so the
	// requester's next transaction re-acquires it with zero lock
	// messages (the real descriptor materializes at the data access).  A
	// conflicting request triggers an async callback/revoke; if the
	// callback cannot be delivered the lease dies at its TTL instead.
	// Off (the default) runs the paper-exact lock protocol.
	LockLeases bool
	// LeaseTTL bounds how long an unrevoked lease is honored (partition
	// fallback) and how long the requester trusts its cache.  Zero means
	// 1s — deliberately below the default LockWaitTimeout, so a queued
	// waiter survives a full expiry-based reclaim.
	LeaseTTL time.Duration
	// AdaptivePlacement enables locality-adaptive placement (DESIGN.md
	// section 14): each storage site tracks which site actually uses each
	// file (decayed access counts) and, when a remote site dominates,
	// migrates the file's primary copy there with a small transactional
	// ownership move, so that site's future commits are local.  Commit
	// coordination is likewise routed to the site holding all of a
	// transaction's data.  Off (the default) runs the static placement,
	// byte-for-byte identical on the wire and on disk.
	AdaptivePlacement bool
	// PlacementMinAccesses is the decayed access mass the dominant site
	// must have accumulated before a move is considered (zero means 8).
	PlacementMinAccesses float64
	// PlacementCooldown is the number of accesses to a file that must
	// elapse after an ownership move before it may move again (zero
	// means 32).
	PlacementCooldown int64
	// DiskSyncDelay charges every forced disk I/O (sync write, vectored
	// batch, flush) this much simulated seek+sync time, serialized at
	// the disk like a real spindle.  Zero keeps operation-counting
	// benchmarks instantaneous; the concurrent-throughput harness sets
	// it to make the group-commit win visible in wall-clock terms.
	DiskSyncDelay time.Duration
	// Trace collects per-site causal event logs (DESIGN.md §8).  Nil —
	// the default — disables tracing: every event site degenerates to a
	// nil check.
	Trace *trace.Collector
	// Clock drives every timed wait in the cluster: simulated disk and
	// network latency, lock and call timeouts, retry and group-commit
	// timers.  Nil (the default) means the real-time clock; a
	// vtime.Virtual clock runs the same workload in discrete-event
	// time, jumping over the latencies instead of sleeping them
	// (DESIGN.md §11).
	Clock vtime.Clock
}

// groupCommit builds the fs-layer config from the cluster knobs.
func (c Config) groupCommit() fs.GroupCommitConfig {
	return fs.GroupCommitConfig{MaxDelay: c.GroupCommitMaxDelay, Clock: c.Clock}
}

// PlacementConfig builds the placement-policy knobs from the cluster
// config (zero knobs, and the dominance threshold and decay half-life
// nobody tunes, take the placement defaults).
func (c Config) PlacementConfig() placement.Config {
	return placement.Config{MinAccesses: c.PlacementMinAccesses, Cooldown: c.PlacementCooldown}
}

func (c Config) withDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = 1024
	}
	if c.VolumePages == 0 {
		c.VolumePages = 512
	}
	if c.LockWaitTimeout == 0 {
		c.LockWaitTimeout = 2 * time.Second
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = time.Second
	}
	if c.Clock == nil {
		c.Clock = vtime.Real()
	}
	return c
}

// Cluster is the whole simulated network of Locus sites.
type Cluster struct {
	cfg Config
	st  *stats.Set
	net *simnet.Network

	mu     sync.Mutex
	sites  map[simnet.SiteID]*Site
	mounts map[string]simnet.SiteID // volume name -> storage site
	// The rest is the copy catalog (placement.go); only an install's
	// verdict changes a copy, and a removal forgets the file.
	//
	// fileHomes overrides the volume mount for individual files whose
	// primary copy was migrated by adaptive placement: path -> current
	// home site.  Entries exist only while a file lives away from its
	// volume's mount site, so static runs never consult a populated map.
	fileHomes map[string]simnet.SiteID
	// replicas lists each replicated volume's replica sites; copies, per
	// file of such a volume, its version and its replica copies'.
	replicas map[string][]simnet.SiteID
	copies   map[string]*fileCopies
	installs map[installKey]*install // from proposal to settle
	// epoch counts the changes to mounts and fileHomes, the two maps a
	// storage site is resolved from, so a Binding resolved at the current
	// epoch is still right.  It starts at 1: a zero Binding is unresolved.
	epoch atomic.Uint64

	nextPID atomic.Int64
	nextTxn atomic.Int64
	txids   names.Buffer // NewTxnID's
}

// New creates an empty cluster.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	if cfg.Net.Clock == nil {
		cfg.Net.Clock = cfg.Clock
	}
	if _, ok := vtime.AsVirtual(cfg.Clock); ok {
		// Trace wall stamps (and the latency histograms built from
		// them) follow the simulation, not the host.
		cfg.Trace.SetNow(cfg.Clock.Now)
	}
	st := stats.NewSet()
	c := &Cluster{
		cfg:       cfg,
		st:        st,
		net:       simnet.New(cfg.Net, st),
		sites:     make(map[simnet.SiteID]*Site),
		mounts:    make(map[string]simnet.SiteID),
		fileHomes: make(map[string]simnet.SiteID),
		replicas:  make(map[string][]simnet.SiteID),
		copies:    make(map[string]*fileCopies),
		installs:  make(map[installKey]*install),
	}
	c.epoch.Store(1)
	return c
}

// Stats returns the cluster-wide counter set.
func (c *Cluster) Stats() *stats.Set { return c.st }

// Net returns the simulated network (for partitions and crash injection).
func (c *Cluster) Net() *simnet.Network { return c.net }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Clock returns the cluster's clock (never nil after New).
func (c *Cluster) Clock() vtime.Clock { return c.cfg.Clock }

// NewPID allocates a globally unique process ID.
func (c *Cluster) NewPID() int { return int(c.nextPID.Add(1)) }

// NewTxnID generates a temporally unique transaction identifier (section
// 4.1); identifiers are monotonically ordered, which the youngest-victim
// deadlock policy relies on.
func (c *Cluster) NewTxnID(site simnet.SiteID) string {
	// Eight zeros, then the number: its last eight characters, or all its
	// digits once it has more, are the number zero-padded to eight.
	var b [48]byte
	id := strconv.AppendInt(append(b[:0], "00000000"...), c.nextTxn.Add(1), 10)
	id = append(id[min(len(id)-8, 8):], '.')
	return c.txids.Cut(string(strconv.AppendInt(id, int64(site), 10)))
}

// AddSite creates a site: the machine, and a first kernel incarnation
// over its (no) disks.
func (c *Cluster) AddSite(id simnet.SiteID) *Site {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sites[id]; ok {
		return s
	}
	s := &Site{machine: machine{id: id, cl: c, ep: c.net.AddSite(id), st: c.st, tr: c.cfg.Trace.Site(int(id))}}
	s.ep.SetTracer(s.tr)
	if c.cfg.AdaptivePlacement {
		s.heat = placement.NewTracker(c.cfg.PlacementConfig())
	}
	if c.cfg.LockLeases {
		s.leaseGauge = c.st.Registry().Gauge("lease_cache_files")
		// Lease reclamation rides the failure detector (section 4.3): a
		// site-down announcement reclaims the downed leaseholder's leases
		// at this storage site and drops this site's cached leases on
		// files the downed site stores.
		c.net.Watch(s.onTopology)
	}
	k, _ := newIncarnation(&s.machine) // no disk yet, so nothing to load and nothing to fail
	s.inc.Store(k)
	s.registerHandlers()
	c.sites[id] = s
	return s
}

// Site returns the site kernel, or nil.
func (c *Cluster) Site(id simnet.SiteID) *Site {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sites[id]
}

// Sites returns all site IDs, sorted.
func (c *Cluster) Sites() []simnet.SiteID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]simnet.SiteID, 0, len(c.sites))
	for id := range c.sites {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddVolume formats a fresh volume at the site and mounts it in the
// global (transparent) namespace.
func (c *Cluster) AddVolume(site simnet.SiteID, name string) error {
	c.mu.Lock()
	s := c.sites[site]
	if s == nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no site %v", site)
	}
	if _, ok := c.mounts[name]; ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: volume %q already mounted", name)
	}
	c.mu.Unlock()

	if _, err := s.kernel().addVolume(&disk{vol: name, mounted: true}); err != nil {
		return err
	}
	c.mu.Lock()
	c.mounts[name] = site
	c.epoch.Add(1)
	c.mu.Unlock()
	return nil
}

// StorageSite resolves the storage site of a path or file ID
// ("volume/name"), consulting the transparent namespace.  A file whose
// primary copy was migrated by adaptive placement resolves to its
// current home, not its volume's mount site.
func (c *Cluster) StorageSite(path string) (simnet.SiteID, error) {
	return c.bind(&Binding{id: path})
}

// Binding is an open file's binding to its storage site (section 3.2: the
// open does the name mapping, later calls skip it): the file ID, the site
// the catalog named for it, and the catalog epoch it was named at.  Open
// returns one and every requester call on the file takes it: the call
// goes to the bound site while the epoch is unchanged, and resolves the
// site again - rebinding - once the epoch has moved or the site refused
// the call as moving (callStorage).  Like the core.File that holds it, a
// Binding is not safe for concurrent use.
type Binding struct {
	id    string
	site  simnet.SiteID
	epoch uint64
}

// ID returns the file's global identifier, its path.
func (b *Binding) ID() string { return b.id }

// Site returns the storage site b's last call went to.
func (b *Binding) Site() simnet.SiteID { return b.site }

// bind returns b's storage site, resolved again (and b rebound) unless b
// was resolved at the catalog's current epoch.
func (c *Cluster) bind(b *Binding) (simnet.SiteID, error) {
	if b.epoch == c.epoch.Load() {
		return b.site, nil
	}
	volName, _, err := splitPath(b.id)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	site, ok := c.homeLocked(b.id, volName)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchVolume, volName)
	}
	b.site, b.epoch = site, c.epoch.Load()
	return site, nil
}

// homeLocked is StorageSite under c.mu, for a path of volume volName.
func (c *Cluster) homeLocked(path, volName string) (simnet.SiteID, bool) {
	if site, ok := c.fileHomes[path]; ok {
		return site, true
	}
	site, ok := c.mounts[volName]
	return site, ok
}

// forget drops the catalog's records of a removed file.
func (c *Cluster) forget(path string) {
	c.mu.Lock()
	delete(c.fileHomes, path)
	delete(c.copies, path)
	c.epoch.Add(1)
	c.mu.Unlock()
}

// homesForVolume lists the names (not paths) of the volume's files
// currently homed away from its mount site.
func (c *Cluster) homesForVolume(volName string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var names []string
	prefix := volName + "/"
	for path := range c.fileHomes {
		if strings.HasPrefix(path, prefix) {
			names = append(names, path[len(prefix):])
		}
	}
	return names
}

// splitPath parses "volume/name".
func splitPath(path string) (vol, name string, err error) {
	i := strings.IndexByte(path, '/')
	if i <= 0 || i == len(path)-1 {
		return "", "", fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	return path[:i], path[i+1:], nil
}

// Shutdown stops every site's coordinator retry timer and closes the
// network.  The cluster's durable state (disks) is untouched; Shutdown
// exists so tests and the chaos engine can tear a cluster down without
// leaking goroutines.
func (c *Cluster) Shutdown() {
	for _, id := range c.Sites() {
		k := c.Site(id).kernel()
		k.mu.Lock()
		coord := k.coord
		k.mu.Unlock()
		if coord != nil {
			coord.Close()
		}
		for _, vs := range k.volStates() {
			vs.vol.Log().StopGroupCommit()
		}
	}
	c.net.Close()
}

// Report renders the cluster's counters under a cost model.
func (c *Cluster) Report(m costmodel.Model) costmodel.Report {
	return m.Report(c.st.Snapshot())
}

// disk is one spindle of the machine and the name of the volume formatted
// on it.  It is what survives a crash; the fs.Volume loaded from it and
// the directory cached over that do not (volState).
type disk struct {
	vol string
	dev *simdisk.Disk
	// mounted marks a volume's mount (AddVolume), as against one a site's
	// first install of one of its files created.  Only a mount carries the
	// coordinator log: a log bound to a volume that appeared mid-run would
	// move across a restart and recovery would replay the wrong volume.
	mounted bool
}

// volState is one volume as one incarnation serves it.
type volState struct {
	name string
	disk *disk
	vol  *fs.Volume

	// dirMu is clock-aware: writeDirLocked commits the directory file
	// (forced disk writes) while holding it.
	dirMu vtime.Mutex
	dir   map[string]int
	// files (under the incarnation's mu) holds the handle installs write a
	// copy through and replica reads read through - one per inode, whose
	// clean-page cache serves repeated reads as the paper's buffer pool did.
	files map[string]*shadow.File
}

// openFile is the storage-site state of one open file.
type openFile struct {
	id    string
	vs    *volState
	file  *shadow.File
	locks *lockmgr.FileLocks
	refs  int
	// updateMode marks the file open for update (section 5.2): written or
	// locked since it last quiesced.  replicated: its volume had replicas
	// then, so the catalog advanced its version (replica.go).
	updateMode, replicated bool
}

// preparedTxn is a participant site's memory of a prepared transaction,
// mirrored in the prepare log for crash recovery.  A prepare copies its
// file list into fileBuf, up to its size.
type preparedTxn struct {
	coord   simnet.SiteID
	fileIDs []string
	fileBuf [1]string
	records []tpc.PrepareRecord
	// recovered marks a prepared transaction rediscovered from the
	// prepare log after a crash: its in-memory working state is gone, so
	// the outcome is applied from the logged intentions in records.
	recovered bool
	// applying marks an outcome delivery in progress.  The entry stays in
	// the table until the outcome is fully applied, so a failed apply is
	// retried by the coordinator instead of being acknowledged as a
	// no-op duplicate; a concurrent duplicate arriving mid-apply is
	// rejected (the coordinator retries) rather than acked early.
	applying bool
	// onePhase marks a one-phase commit (DESIGN.md section 10): the
	// transaction's own prepare-record force was the commit point, so
	// its outcome resolves locally - no coordinator log exists to query.
	onePhase bool
}

// machine is the part of a site a crash leaves standing (section 4.3: a
// site failure loses all kernel memory and nothing on disk).  Code that
// holds a *machine can send messages and spin disks but can reach no
// kernel table.
type machine struct {
	id simnet.SiteID
	cl *Cluster
	ep *simnet.Endpoint
	st *stats.Set
	tr *trace.Tracer // nil when Config.Trace is unset

	diskMu sync.Mutex
	disks  []*disk // in the order they were added

	// Three things that describe the workload or the machine rather than
	// what the kernel knows, and so outlive it.  heat is this storage
	// site's per-file accessor profile (DESIGN.md section 14), nil unless
	// Config.AdaptivePlacement.  installSeq numbers the installs this site
	// ships; were it to repeat, a pre-crash install still in the catalog
	// and a post-restart one would share a name.  placeOps counts in-flight
	// moves and installs so a harness can quiesce them before auditing: it
	// tracks goroutines, which no crash kills.
	heat       *placement.Tracker
	installSeq atomic.Uint64
	placeOps   atomic.Int64
	// leaseGauge counts the files the live incarnation caches a lease on;
	// nil unless Config.LockLeases, so legacy runs never materialize it.
	leaseGauge *telemetry.Gauge
}

// incarnation is one boot of a site's kernel: everything a crash forfeits,
// as one value.  newIncarnation builds it, Crash marks it dead, nothing is
// carried from one to the next, and a handler - or an actor it spawned -
// runs in the one that received the request (handle) and can reach no
// other.  DESIGN.md section 9 lists each field with who rebuilds it.
type incarnation struct {
	*machine

	// mu is clock-aware: handleOpen and friends hold it across shadow
	// reads and forced writes, so under a virtual clock contenders must
	// park without freezing simulated time.
	mu vtime.Mutex
	// dead is set once, by Crash, under mu.  What must not happen after
	// the crash (an install's verdict, a new volume) tests it under mu;
	// what merely must not be answered, or may no longer commit (a move
	// this kernel proposed), loads it.
	dead     atomic.Bool
	vols     map[string]*volState // one per volume name: mounted or installed
	volList  []*volState          // vols in name order (serveLocked)
	open     map[string]*openFile
	locks    *lockmgr.Manager
	procs    *proc.Table
	coord    *tpc.Coordinator
	prepared map[string]*preparedTxn
	// txns names the transactions that have locked, read or written a
	// file here since boot (joinTxn; finishTxn forgets them), each mapped
	// to its name (txnName).  It is lost in a crash with the locks and
	// modifications it stands for, which is how a prepare can tell that
	// this site no longer has the transaction's work (gatherPrepare).
	// Writers hold mu and txnMu; txnName reads under txnMu alone, since a
	// wait for mu could park the caller and move the interleaving.
	txnMu    sync.Mutex
	txns     map[string]string
	txnNames names.Buffer // txnName's

	// lock cache (section 5.1): the coverage granted to each group.
	cacheMu   sync.Mutex
	lockCache []cachedLock

	// Lock-lease state (DESIGN.md section 13), nil unless
	// Config.LockLeases, both halves under one mutex: leases is the
	// requesting-site cache (fileID -> coverage this site may re-acquire
	// without a lock message), leaseMeta the storage-site book-keeping
	// (per (fileID, leaseholder) grant counts, expiry and revocation
	// state).
	leaseMu   sync.Mutex
	leases    map[string]*siteLease
	leaseMeta map[string]map[simnet.SiteID]*leaseMeta
	// leaseSpare holds emptied siteLease records for reuse (leaseForgetLocked).
	leaseSpare []*siteLease

	// fenced marks files mid-install here - the source of a move, or the
	// target of any install - so two installs of one file never
	// interleave, and (with Config.AdaptivePlacement, movingGuard) new
	// operations wait behind errMoved until a move is decided and settled.
	fenceMu sync.Mutex
	fenced  map[string]struct{}
}

// Site is one machine and the latest incarnation of its kernel.
type Site struct {
	machine
	// inc is never nil once AddSite returns.  Between Crash and Restart it
	// names the dead incarnation: a harness can still inspect a down site,
	// a process there still finds its caches, no message is answered.
	inc atomic.Pointer[incarnation]
	// stall, set by tests only, runs at the top of every handler.
	stall atomic.Pointer[func(op string)]
}

// groupKey is a lock group as a comparable value, without building its
// name: the transaction, or outside one the process.
func groupKey(pid int, txn string) lockmgr.Holder {
	if txn != "" {
		return lockmgr.Holder{Txn: txn}
	}
	return lockmgr.Holder{PID: pid}
}

type cachedLock struct {
	group  lockmgr.Holder // groupKey
	fileID string
	mode   lockmgr.Mode
	off    int64
	len    int64
}

// mount turns a disk into a served volume, the only way one comes into
// being: format it (a new disk) or load what survived on it (a restart),
// wire the volume to the site's configuration, tracer, clock and
// group-commit daemon, and read its directory.
func (m *machine) mount(d *disk, format bool) (*volState, error) {
	cfg := m.cl.cfg
	vs := &volState{name: d.vol, disk: d, files: make(map[string]*shadow.File)}
	vs.dirMu.SetClock(cfg.Clock)
	var err error
	if format {
		vs.vol, err = fs.Format(d.vol, d.dev, fs.Options{})
	} else {
		vs.vol, err = fs.Load(d.vol, d.dev)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: volume %q: %w", d.vol, err)
	}
	vs.vol.DoubleLogWrite = cfg.DoubleLogWrites
	vs.vol.SetTracer(m.tr)
	vs.vol.SetClock(cfg.Clock)
	vs.vol.Log().StartGroupCommit(cfg.groupCommit())
	if format {
		err = vs.initDirectory()
	} else {
		err = vs.loadDirectory()
	}
	if err != nil {
		vs.vol.Invalidate()
		return nil, err
	}
	return vs, nil
}

// addVolume formats the volume d names on a new disk and brings it into
// service in k.vols: a mount, or a site's first install of one of its
// files (of two racing first installs the loser gets the winner's).  The
// machine keeps the disk only once a live incarnation serves the volume,
// so the next boot loads exactly the disks some kernel vouched for.
func (k *incarnation) addVolume(d *disk) (*volState, error) {
	cfg := k.cl.cfg
	name := d.vol
	if !d.mounted {
		name = fmt.Sprintf("%s@%v", d.vol, k.id)
	}
	d.dev = simdisk.New(name, cfg.VolumePages, cfg.PageSize, k.st)
	d.dev.SetSyncDelay(cfg.DiskSyncDelay)
	d.dev.SetClock(cfg.Clock)
	vs, err := k.mount(d, true)
	if err != nil {
		return nil, err
	}
	k.mu.Lock()
	cur, dup := k.vols[d.vol]
	switch {
	case k.dead.Load():
		err = ErrSiteDown
	case !dup:
		k.serveLocked(vs)
		cur = vs
	}
	if cur == vs {
		k.diskMu.Lock()
		k.disks = append(k.disks, d)
		k.diskMu.Unlock()
	}
	k.mu.Unlock()
	if cur != vs {
		vs.vol.Invalidate() // stops the daemon mount started
	}
	return cur, err
}

// kernel returns the site's latest incarnation, live or dead.
func (s *Site) kernel() *incarnation { return s.inc.Load() }

// ID returns the site's network identifier.
func (m *machine) ID() simnet.SiteID { return m.id }

// Cluster returns the owning cluster.
func (m *machine) Cluster() *Cluster { return m.cl }

// Tracer returns the site's event tracer, nil when tracing is off.
func (m *machine) Tracer() *trace.Tracer { return m.tr }

// Procs exposes the site's process table.
func (s *Site) Procs() *proc.Table { return s.kernel().procs }

// Locks exposes the site's lock manager (storage-site lock lists).
func (s *Site) Locks() *lockmgr.Manager { return s.kernel().locks }

// Up reports whether the site is running.
func (s *Site) Up() bool { return !s.kernel().dead.Load() }

// Coordinator returns (creating on first use) the site's two-phase commit
// coordinator.
func (s *Site) Coordinator() (*tpc.Coordinator, error) { return s.kernel().Coordinator() }

// Coordinator returns (creating on first use) the incarnation's two-phase
// commit coordinator.  Its log lives on the first mounted volume by name.
// Installed volumes (moves and replicas) are skipped even when lexically
// first: they materialize mid-run, and a log that moved volumes across a
// restart would leave recovery replaying the wrong log - stranding records
// whose presumed-abort answer could then contradict a commit that already
// happened.  Sites that coordinate transactions must have at least one
// mounted volume.
func (k *incarnation) Coordinator() (*tpc.Coordinator, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.coord != nil {
		return k.coord, nil
	}
	if k.dead.Load() {
		return nil, ErrSiteDown
	}
	var names []string
	for n, vs := range k.vols {
		if vs.disk.mounted {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("cluster: site %v has no mounted volume for its coordinator log", k.id)
	}
	cfg := k.cl.cfg
	k.coord = tpc.NewCoordinator(k.id, k.vols[slices.Min(names)].vol, &siteTransport{k.machine}, k.st, tpc.Config{
		SyncPhase2:    cfg.SyncPhase2,
		RetryInterval: cfg.RetryInterval,
		FastPaths:     cfg.FastPaths,
		Clock:         cfg.Clock,
	})
	k.coord.SetTracer(k.tr)
	return k.coord, nil
}

// lookupOpen returns the open-file entry, which must exist at this
// (storage) site.
func (k *incarnation) lookupOpen(fileID string) (*openFile, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	of, ok := k.open[fileID]
	if !ok {
		return nil, fmt.Errorf("%w: %q not open at %v", ErrNoSuchFile, fileID, k.id)
	}
	return of, nil
}

// joinTxn enters the transaction, under its name, in k.txns once an
// access of its has been granted.
func (k *incarnation) joinTxn(txid, name string) {
	k.mu.Lock()
	k.txnMu.Lock()
	k.txns[txid] = name
	k.txnMu.Unlock()
	k.mu.Unlock()
}

// txnName is the transaction's name (lockmgr.TxnGroup): its lock group
// and its shadow owner, cut when it first reaches this site and kept
// with its mark (joinTxn) until finishTxn.
func (k *incarnation) txnName(txid string) string {
	k.txnMu.Lock()
	name, ok := k.txns[txid]
	k.txnMu.Unlock()
	if !ok {
		name = k.txnNames.Cut(lockmgr.TxnPrefix, txid)
	}
	return name
}

// volStates returns the volumes the incarnation serves, in name order,
// the order their disk work is issued in.  Callers only read the slice,
// which serveLocked replaces rather than edits.
func (k *incarnation) volStates() []*volState {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.volList
}

// serveLocked enters vs in k.vols and in a fresh copy of k.volList.
// Caller holds k.mu, or is booting k.
func (k *incarnation) serveLocked(vs *volState) {
	k.vols[vs.name] = vs
	i, _ := slices.BinarySearchFunc(k.volList, vs.name, func(a *volState, name string) int { return strings.Compare(a.name, name) })
	k.volList = slices.Insert(slices.Clip(k.volList), i, vs)
}

// volByName returns the state of a volume served at this site.
func (k *incarnation) volByName(name string) (*volState, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	vs, ok := k.vols[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q not stored at %v", ErrNoSuchVolume, name, k.id)
	}
	return vs, nil
}

// volFor returns the volume state for a fileID stored at this site.
func (k *incarnation) volFor(fileID string) (*volState, error) {
	volName, _, err := splitPath(fileID)
	if err != nil {
		return nil, err
	}
	return k.volByName(volName)
}

// Holder builds a lock holder for a process.
func Holder(pid int, txn string) lockmgr.Holder {
	return lockmgr.Holder{PID: pid, Txn: txn}
}

// procOwner is the shadow-layer owner of a process's own (non-transaction)
// modifications; a transaction's owner is its name (txnName).
func procOwner(pid int) shadow.Owner {
	return shadow.Owner("proc:" + strconv.Itoa(pid))
}
