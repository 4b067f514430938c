// Package stats provides the operation-counting substrate shared by every
// subsystem of the Locus reproduction.
//
// The paper's evaluation (section 6) is an operation-counting exercise: it
// reports instruction counts, disk I/Os per transaction (Figure 5), and
// message round trips.  Rather than sprinkling timing code through the
// kernel, each subsystem counts semantic events (lock acquisitions, data
// page writes, bytes copied by the differencing commit, ...) into a Set.
// Package costmodel converts a Snapshot of those events into simulated
// service time and latency under a calibrated hardware model.
//
// A nil *Set is valid everywhere and counts nothing, so library code never
// needs to guard its accounting calls.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// Counter identifies one class of counted event.
type Counter int

// The counted event classes.  Disk-write subcounters (CoordLogWrites,
// PrepareLogWrites, DataPageWrites, InodeWrites, WALWrites) are charged in
// addition to DiskWrites so Figure 5's per-step breakdown can be
// regenerated without parsing traces.
const (
	// Instructions is directly-charged CPU work, in simulated VAX-style
	// instructions.  Subsystems charge fixed per-operation costs plus
	// per-byte costs calibrated in package costmodel.
	Instructions Counter = iota

	// Disk events.
	DiskReads
	DiskWrites
	CoordLogWrites   // step 1 and commit mark (step 4) of Figure 5
	PrepareLogWrites // step 3 of Figure 5
	DataPageWrites   // step 2 of Figure 5
	InodeWrites      // step 5 of Figure 5 (phase-2 pointer replacement)
	WALWrites        // baseline write-ahead log records (internal/wal)
	// ForcedIOs counts synchronous disk forces: each sync page write or
	// flush is one force, and a vectored WritePages batch is one force no
	// matter how many pages it carries.  Group commit shrinks this
	// counter (and the simulated sync latency) without changing the
	// per-page write counts above.
	ForcedIOs

	// Group-commit daemon events (internal/fs).
	GroupCommitBatches // batched log flushes issued
	GroupCommitRecords // log records carried by those batches

	// Network events.
	MsgsSent
	BytesSent
	RPCs // request/response round trips initiated

	// Lock manager events.
	LockAcquires
	LockReleases
	LockUpgrades
	LockDenials
	LockWaits
	LockCacheHits
	LockCacheMisses

	// Record commit mechanism events.
	PageCommits
	PageAborts
	PageDiffs   // pages that required the Figure 4(b) differencing path
	BytesCopied // bytes moved between page versions while differencing

	// Process and transaction lifecycle events.
	Syscalls
	Forks
	Migrations
	TxnBegins
	TxnCommits
	TxnAborts

	// Commit fast-path events (DESIGN.md section 10).
	ReadOnlyVotes   // participants that answered prepare with VoteReadOnly
	OnePhaseCommits // single-site transactions committed by the combined message

	// Lock lease events (DESIGN.md section 13).
	LockMsgs         // lock/unlock RPCs sent to a remote storage site
	LeaseHits        // remote lock acquisitions satisfied from the lease cache
	LeaseRevokes     // leases reclaimed at the storage site, after a callback or on a site loss
	LeaseEscalations // byte-range lease sets escalated to whole-file leases

	// Locality-adaptive placement events (DESIGN.md section 14).
	LocalCommits        // transactions committed with zero remote participant sites
	RemoteParticipants  // remote participant sites summed across committed transactions
	OwnerMoves          // primary copies migrated to the dominant accessor
	OwnerAdopts         // primary copies installed at a new home by a move's install
	RoutedCommits       // commits whose coordinator role was routed to the data's site
	PlacementMigrations // processes moved to their data by placement: none; kept because the ledger reports it

	numCounters
)

var counterNames = [numCounters]string{
	Instructions:     "instructions",
	DiskReads:        "disk_reads",
	DiskWrites:       "disk_writes",
	CoordLogWrites:   "coord_log_writes",
	PrepareLogWrites: "prepare_log_writes",
	DataPageWrites:   "data_page_writes",
	InodeWrites:      "inode_writes",
	WALWrites:        "wal_writes",
	ForcedIOs:        "forced_ios",

	GroupCommitBatches: "group_commit_batches",
	GroupCommitRecords: "group_commit_records",
	MsgsSent:           "msgs_sent",
	BytesSent:          "bytes_sent",
	RPCs:               "rpcs",
	LockAcquires:       "lock_acquires",
	LockReleases:       "lock_releases",
	LockUpgrades:       "lock_upgrades",
	LockDenials:        "lock_denials",
	LockWaits:          "lock_waits",
	LockCacheHits:      "lock_cache_hits",
	LockCacheMisses:    "lock_cache_misses",
	PageCommits:        "page_commits",
	PageAborts:         "page_aborts",
	PageDiffs:          "page_diffs",
	BytesCopied:        "bytes_copied",
	Syscalls:           "syscalls",
	Forks:              "forks",
	Migrations:         "migrations",
	TxnBegins:          "txn_begins",
	TxnCommits:         "txn_commits",
	TxnAborts:          "txn_aborts",
	ReadOnlyVotes:      "read_only_votes",
	OnePhaseCommits:    "one_phase_commits",
	LockMsgs:           "lock_msgs",
	LeaseHits:          "lease_hits",
	LeaseRevokes:       "lease_revokes",
	LeaseEscalations:   "escalations",

	LocalCommits:        "local_commits",
	RemoteParticipants:  "remote_participants",
	OwnerMoves:          "owner_moves",
	OwnerAdopts:         "owner_adopts",
	RoutedCommits:       "routed_commits",
	PlacementMigrations: "placement_migrations",
}

// CounterByName returns the counter with the given snake_case name.
func CounterByName(name string) (Counter, bool) {
	for i, n := range counterNames {
		if n == name {
			return Counter(i), true
		}
	}
	return 0, false
}

// String returns the snake_case name of the counter.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// NumCounters reports how many counter classes exist.
func NumCounters() int { return int(numCounters) }

// Set is a collection of atomic counters.  Since the telemetry
// consolidation it is a thin shim over a telemetry.Registry: each enum
// slot pre-resolves one *telemetry.Counter handle (same snake_case name
// as the JSON form), so the hot path stays one atomic add while the
// stats snapshot, the bench tallies and the utilization sampler all
// read the same cells.  Create sets with NewSet (or NewSetOn to share a
// registry); all methods are safe for concurrent use, and safe on a nil
// receiver (where they count nothing and read zero).
type Set struct {
	reg *telemetry.Registry
	c   [numCounters]*telemetry.Counter
}

// NewSet returns an empty counter set backed by a fresh registry.
func NewSet() *Set { return NewSetOn(telemetry.NewRegistry()) }

// NewSetOn returns a counter set whose cells live in reg, one counter
// per enum slot under its snake_case name.
func NewSetOn(reg *telemetry.Registry) *Set {
	s := &Set{reg: reg}
	for i := Counter(0); i < numCounters; i++ {
		s.c[i] = reg.Counter(counterNames[i])
	}
	return s
}

// Registry exposes the backing metric registry — the door to gauges,
// histograms and the profiler for every subsystem that already threads
// a *Set.  Returns nil on a nil set.
func (s *Set) Registry() *telemetry.Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Add adds n to counter c.
func (s *Set) Add(c Counter, n int64) {
	if s == nil {
		return
	}
	s.c[c].Add(n)
}

// Inc adds 1 to counter c.
func (s *Set) Inc(c Counter) { s.Add(c, 1) }

// Get returns the current value of counter c.
func (s *Set) Get(c Counter) int64 {
	if s == nil {
		return 0
	}
	return s.c[c].Get()
}

// Reset zeroes every counter.
func (s *Set) Reset() {
	if s == nil {
		return
	}
	for i := range s.c {
		s.c[i].Store(0)
	}
}

// Snapshot captures the current value of every counter.
func (s *Set) Snapshot() Snapshot {
	var snap Snapshot
	if s == nil {
		return snap
	}
	for i := range s.c {
		snap[i] = s.c[i].Get()
	}
	return snap
}

// Snapshot is an immutable point-in-time copy of a Set.
type Snapshot [numCounters]int64

// Get returns the value of counter c in the snapshot.
func (s Snapshot) Get(c Counter) int64 { return s[c] }

// Sub returns the element-wise difference s - b, i.e. the events that
// occurred between snapshot b and snapshot s.
func (s Snapshot) Sub(b Snapshot) Snapshot {
	var d Snapshot
	for i := range s {
		d[i] = s[i] - b[i]
	}
	return d
}

// Add returns the element-wise sum s + b.
func (s Snapshot) Add(b Snapshot) Snapshot {
	var d Snapshot
	for i := range s {
		d[i] = s[i] + b[i]
	}
	return d
}

// IsZero reports whether every counter in the snapshot is zero.
func (s Snapshot) IsZero() bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

// MarshalJSON renders the snapshot as a flat name->value object holding
// every counter (zeros included, so schemas stay stable across runs).
// Keys are emitted sorted, making the output canonical: equal snapshots
// marshal to identical bytes.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	names := make([]string, numCounters)
	copy(names, counterNames[:])
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		c, _ := CounterByName(name)
		fmt.Fprintf(&b, "%q:%d", name, s[c])
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// String renders the non-zero counters, sorted by name, as
// "name=value name=value ...".  Zero snapshots render as "(no events)".
func (s Snapshot) String() string {
	type kv struct {
		name string
		val  int64
	}
	var items []kv
	for i, v := range s {
		if v != 0 {
			items = append(items, kv{counterNames[i], v})
		}
	}
	if len(items) == 0 {
		return "(no events)"
	}
	sort.Slice(items, func(i, j int) bool { return items[i].name < items[j].name })
	var b strings.Builder
	for i, it := range items {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", it.name, it.val)
	}
	return b.String()
}
