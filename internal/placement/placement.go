// Package placement implements locality-adaptive placement (DESIGN.md
// section 14): the heat tracker that learns which site is actually
// using each file, and the policy that decides when a file's primary copy
// should move to its dominant accessor.
//
// The motivation is the ROADMAP's observation that the cheapest
// distributed commit is the one that stopped being distributed: the
// fast paths (section 10) and lock leases (section 13) make remote
// coordination cheaper per occurrence, while placement makes it rarer.
// The target metric is the fraction of transactions that commit with
// zero remote participants (stats.LocalCommits / stats.TxnCommits).
//
// Everything here is measured in *accesses*, not wall time: decay and
// cooldown advance one tick per recorded access, so a fixed-seed run
// makes exactly the same placement decisions no matter how fast the
// clock runs - the property every deterministic harness in this repo
// (crashprobe, chaos, -vtime benches) depends on.
package placement

import (
	"math"
	"sort"
	"sync"

	"repro/internal/simnet"
)

// Config tunes the placement policy.  The zero value of each knob
// selects the default noted on it.
type Config struct {
	// Threshold is the decayed access share a remote site must hold
	// before it is considered dominant (default 0.6).  Values above 0.5
	// are the hysteresis: at most one site can exceed the threshold, and
	// a site that merely ties the current owner never triggers a move.
	Threshold float64
	// MinAccesses is the decayed access mass the dominant site must have
	// accumulated on the file before a move is considered (default 8).
	// It suppresses moves driven by a handful of samples.
	MinAccesses float64
	// Cooldown is the number of accesses to a file that must elapse
	// after an ownership move before the file may move again
	// (default 32).  It bounds ping-ponging under mixed access.
	Cooldown int64
	// HalfLife is the number of accesses over which an old observation
	// loses half its weight (default 256).  Smaller values adapt faster
	// to shifting hotspots; larger values are steadier.
	HalfLife float64
}

// Defaults for the Config knobs.
const (
	DefaultThreshold   = 0.6
	DefaultMinAccesses = 8
	DefaultCooldown    = 32
	DefaultHalfLife    = 256
)

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = DefaultThreshold
	}
	if c.MinAccesses <= 0 {
		c.MinAccesses = DefaultMinAccesses
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultCooldown
	}
	if c.HalfLife <= 0 {
		c.HalfLife = DefaultHalfLife
	}
	return c
}

// fileHeat is one file's decayed per-accessor-site access counts.
type fileHeat struct {
	counts   map[simnet.SiteID]float64
	tick     int64 // file-local access count (cooldown clock)
	decayed  int64 // t.tick value at the last decay application
	lastMove int64 // fileHeat.tick at the last ownership move, -1 if never
}

// Tracker maintains decayed per-(file, accessor-site) access counts for
// one storage site.  Record is O(1) amortized: decay is applied lazily,
// per file, only when that file is next touched or queried.  Safe for
// concurrent use.
type Tracker struct {
	cfg   Config
	decay float64 // per-tick multiplier: 2^(-1/HalfLife)

	mu    sync.Mutex
	tick  int64 // global access counter (decay clock)
	files map[string]*fileHeat
}

// NewTracker builds a tracker with the given knobs (zero values take
// the defaults).
func NewTracker(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	return &Tracker{
		cfg:   cfg,
		decay: math.Exp2(-1 / cfg.HalfLife),
		files: make(map[string]*fileHeat),
	}
}

// Config returns the tracker's resolved knobs.
func (t *Tracker) Config() Config { return t.cfg }

// age applies the decay owed to f since it was last touched.  Caller
// holds t.mu.
func (t *Tracker) age(f *fileHeat) {
	dt := t.tick - f.decayed
	if dt <= 0 {
		return
	}
	m := math.Pow(t.decay, float64(dt))
	for s, v := range f.counts {
		v *= m
		if v < 1e-6 {
			delete(f.counts, s)
		} else {
			f.counts[s] = v
		}
	}
	f.decayed = t.tick
}

// Record counts one access to path by accessor site.  Nil-safe: a nil
// tracker records nothing, so call sites need no placement-enabled
// guard.
func (t *Tracker) Record(path string, site simnet.SiteID) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tick++
	f := t.files[path]
	if f == nil {
		f = &fileHeat{counts: make(map[simnet.SiteID]float64), decayed: t.tick, lastMove: -1}
		t.files[path] = f
	}
	t.age(f)
	f.counts[site]++
	f.tick++
	t.mu.Unlock()
}

// Dominant reports the remote site that should own path, if any: the
// site with the highest decayed count, provided it is not self, holds
// at least Threshold of the file's total mass and MinAccesses of
// absolute mass, and the file's cooldown has elapsed.  Ties break to
// the lowest site id, keeping fixed-seed runs deterministic.
func (t *Tracker) Dominant(path string, self simnet.SiteID) (simnet.SiteID, bool) {
	if t == nil {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.files[path]
	if f == nil {
		return 0, false
	}
	if f.lastMove >= 0 && f.tick-f.lastMove < t.cfg.Cooldown {
		return 0, false
	}
	t.age(f)
	var total float64
	var best simnet.SiteID
	bestV := -1.0
	sites := make([]simnet.SiteID, 0, len(f.counts))
	for s := range f.counts {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	for _, s := range sites {
		v := f.counts[s]
		total += v
		if v > bestV {
			best, bestV = s, v
		}
	}
	if best == self || total <= 0 {
		return 0, false
	}
	if bestV < t.cfg.MinAccesses || bestV/total < t.cfg.Threshold {
		return 0, false
	}
	return best, true
}

// NoteMove stamps path's cooldown clock after an ownership move.
func (t *Tracker) NoteMove(path string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if f := t.files[path]; f != nil {
		f.lastMove = f.tick
	}
	t.mu.Unlock()
}

// Forget drops path's heat (file removed, or ownership handed away -
// the new owner starts its own view).
func (t *Tracker) Forget(path string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.files, path)
	t.mu.Unlock()
}

// Shares returns path's current decayed access shares by site, for
// tests and monitoring.  The map is a copy.
func (t *Tracker) Shares(path string) map[simnet.SiteID]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.files[path]
	if f == nil {
		return nil
	}
	t.age(f)
	var total float64
	for _, v := range f.counts {
		total += v
	}
	out := make(map[simnet.SiteID]float64, len(f.counts))
	for s, v := range f.counts {
		out[s] = v / total
	}
	return out
}
