// Package telemetry is the metrics substrate behind the repo's
// observability layer: a registry of named atomic counters, gauges and
// fixed-bucket histograms, a clock-aware utilization sampler, and a
// commit critical-path profiler.
//
// The design follows internal/trace: every handle is nil-safe, so a
// subsystem instruments unconditionally and a disabled run pays exactly
// one nil check per site.  internal/stats is a thin compatibility shim
// over this registry (stats.Set pre-resolves one Counter handle per
// enum slot), which means every component that already threads a
// *stats.Set — simnet, simdisk, lockmgr, fs, tpc, proc — reaches the
// registry through Set.Registry() with no extra plumbing, and the
// bench tallies, stats snapshots and sampler time-series all read the
// same underlying cells (no duplicate-counter drift).
package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically-increasing atomic cell.  A nil *Counter is
// valid and every method is a no-op costing one comparison.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.  No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.  No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Get returns the current value, 0 for nil.
func (c *Counter) Get() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Store overwrites the value (Reset support for the stats shim).
func (c *Counter) Store(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Gauge is a settable atomic level (queue depth, in-flight messages).
// A nil *Gauge is valid; every method is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores the level.  No-op on nil.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the level by n (negative to decrease).  No-op on nil.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Get returns the current level, 0 for nil.
func (g *Gauge) Get() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: Bounds[i] is the inclusive
// upper bound of bucket i, with one implicit overflow bucket past the
// last bound.  Observations are lock-free atomic adds; a nil *Histogram
// is valid and Observe on it is a no-op.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1
	count   atomic.Int64
	sum     atomic.Int64
}

// NewHistogram builds a standalone histogram with the given ascending
// upper bounds.  Most callers go through Registry.Histogram instead.
func NewHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.  No-op on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations, 0 for nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running total of observed values, 0 for nil.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns Sum/Count, 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// HistSnapshot is a histogram's frozen state.
type HistSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1, last is overflow
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot freezes the histogram.  Zero value for nil.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns the nearest-rank q-quantile estimated from bucket
// upper bounds (the overflow bucket reports the largest finite bound).
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count-1)) + 1
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// DurationBuckets is the standard latency bucket ladder (nanoseconds):
// 1µs to 100s, three steps per decade.  Hot paths pass it on every
// histogram lookup, so the ladders are built once and shared: read-only.
func DurationBuckets() []int64 { return durationBuckets }

// SizeBuckets is the standard count ladder (batch sizes, queue depths).
func SizeBuckets() []int64 { return sizeBuckets }

var (
	sizeBuckets     = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	durationBuckets = func() (b []int64) {
		for base := int64(time.Microsecond); base <= int64(100*time.Second); base *= 10 {
			b = append(b, base, 2*base, 5*base)
		}
		return b
	}()
)

// Registry holds one run's named metrics.  A nil *Registry is valid:
// every lookup returns a nil handle whose methods are no-ops.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	prof     atomic.Pointer[Profiler]
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.  Returns
// nil when the registry is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.  Returns nil
// when the registry is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls ignore bounds).  Returns nil when
// the registry is nil.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// EnableProfiling attaches (creating on first call) the registry's
// commit critical-path profiler.  Returns nil on a nil registry.
func (r *Registry) EnableProfiling() *Profiler {
	if r == nil {
		return nil
	}
	if p := r.prof.Load(); p != nil {
		return p
	}
	p := NewProfiler()
	if !r.prof.CompareAndSwap(nil, p) {
		return r.prof.Load()
	}
	return p
}

// Profiler returns the attached profiler, nil when profiling is off (or
// the registry is nil) — every Profiler method is nil-safe, so callers
// charge unconditionally.
func (r *Registry) Profiler() *Profiler {
	if r == nil {
		return nil
	}
	return r.prof.Load()
}

// Snapshot is a frozen, JSON-canonical view of a registry.
type Snapshot struct {
	Counters   map[string]int64        `json:"-"`
	Gauges     map[string]int64        `json:"-"`
	Histograms map[string]HistSnapshot `json:"-"`
}

// Snapshot freezes every metric.  Empty snapshot for nil.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Get()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Get()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Utilization renders the snapshot's headline resource figures - spindle,
// network, commit locality, lock manager, deadlock detector, group commit
// - one line per resource that saw any activity.  total is the simulated
// span the busy time is a fraction of (zero omits the percentage).
func (s Snapshot) Utilization(total time.Duration) string {
	var b strings.Builder
	c := s.Counters
	ms := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Millisecond) }
	mean := func(h HistSnapshot) float64 { return float64(h.Sum) / float64(max(h.Count, 1)) }
	fmt.Fprintf(&b, "spindle: %s busy", ms(c["disk_busy_ns"]))
	if total > 0 {
		fmt.Fprintf(&b, " (%.1f%% of %s)", 100*float64(c["disk_busy_ns"])/float64(total.Nanoseconds()), total.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, ", %d forces, %d writes, %d reads\n", c["forced_ios"], c["disk_writes"], c["disk_reads"])
	if n := c["msgs_sent"]; n > 0 {
		fmt.Fprintf(&b, "network: %d messages, %s in transit\n", n, ms(c["net_transit_ns"]))
	}
	if commits := c["txn_commits"]; commits > 0 {
		fmt.Fprintf(&b, "locality: %.1f%% local commits (%d of %d), %d remote participant sites, %d owner moves, %d routed, %d proc moves\n",
			100*float64(c["local_commits"])/float64(commits), c["local_commits"], commits,
			c["remote_participants"], c["owner_moves"], c["routed_commits"], c["placement_migrations"])
	}
	if h := s.Histograms["lock_wait_ns"]; h.Count > 0 {
		fmt.Fprintf(&b, "lock manager: %d queue waits, mean %s\n", h.Count, time.Duration(mean(h)).Round(time.Microsecond))
	}
	if n := c["deadlock_scans"]; n > 0 {
		fmt.Fprintf(&b, "deadlock detector: %d scans, %d victims\n", n, c["deadlock_victims"])
	}
	if h := s.Histograms["group_commit_batch_size"]; h.Count > 0 {
		fmt.Fprintf(&b, "group commit: %d flushes, mean batch %.1f records, mean linger %s\n", h.Count, mean(h),
			time.Duration(mean(s.Histograms["group_commit_linger_ns"])).Round(time.Microsecond))
	}
	return b.String()
}

// flatten merges counters, gauges and histogram count/sum cells into one
// flat map — the shape the sampler records.  Histogram cells appear as
// "<name>.count" and "<name>.sum".  Reads only atomics (plus r.mu.RLock),
// so it is safe to call from the virtual clock's advance hook.
func (r *Registry) flatten() map[string]int64 {
	out := map[string]int64{}
	if r == nil {
		return out
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		out[name] = c.Get()
	}
	for name, g := range r.gauges {
		out[name] = g.Get()
	}
	for name, h := range r.hists {
		out[name+".count"] = h.count.Load()
		out[name+".sum"] = h.sum.Load()
	}
	return out
}

// MarshalJSON renders the snapshot with sorted keys so equal snapshots
// produce identical bytes — the contract behind the golden-telemetry CI
// diff.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	buf.WriteString(`"counters":`)
	writeSortedInts(&buf, s.Counters)
	buf.WriteString(`,"gauges":`)
	writeSortedInts(&buf, s.Gauges)
	buf.WriteString(`,"histograms":{`)
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%q:", name)
		b, err := json.Marshal(s.Histograms[name])
		if err != nil {
			return nil, err
		}
		buf.Write(b)
	}
	buf.WriteString("}}")
	return buf.Bytes(), nil
}

func writeSortedInts(buf *bytes.Buffer, m map[string]int64) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	buf.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(buf, "%q:%d", name, m[name])
	}
	buf.WriteByte('}')
}
