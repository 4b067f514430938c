package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/vtime"
)

// Sample is one row of the utilization time-series: every registry cell
// (counters, gauges, histogram count/sum as "<name>.count"/"<name>.sum")
// frozen at one interval boundary.  Offset is measured from the
// sampler's start.
type Sample struct {
	Offset time.Duration
	Values map[string]int64
}

// Sampler cuts periodic samples of a registry on a Virtual clock.
//
// It runs no goroutine at all: it observes the clock's quiescent
// time-advance hook and emits one sample per interval boundary the jump
// crosses.  Because every registered actor is parked when the hook runs,
// the sampled values are deterministic for a fixed seed, and — since it
// is no actor and schedules no events — an idle simulation never
// advances simulated time on its behalf.
type Sampler struct {
	reg      *Registry
	interval time.Duration

	mu      sync.Mutex
	base    time.Duration // virtual elapsed at Start
	next    int64         // index of the next boundary to emit (1-based)
	samples []Sample

	v *vtime.Virtual // the clock sampled, nil before Start and after Stop
}

// NewSampler builds a sampler over reg with the given interval (10ms
// when not positive).
func NewSampler(reg *Registry, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	return &Sampler{reg: reg, interval: interval, next: 1}
}

// Start begins sampling on the given clock.  Safe to call once.
func (s *Sampler) Start(v *vtime.Virtual) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.v != nil {
		s.mu.Unlock()
		return
	}
	s.v, s.base = v, v.Elapsed()
	s.mu.Unlock()
	v.SetAdvanceHook(s.onAdvance)
}

// onAdvance is the Virtual clock's quiescent advance observer.  It runs
// inside a clock park, with every actor parked: only atomics and
// s.mu/reg.mu are touched, none of which are ever held across a clock call.
func (s *Sampler) onAdvance(_, now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.catchUpLocked(now)
}

// catchUpLocked emits one sample per boundary at or before the given
// virtual elapsed time.  The values are the registry's current cells:
// correct for every crossed boundary, because quiescence means nothing
// ran between the previous instant and now.
func (s *Sampler) catchUpLocked(elapsed time.Duration) {
	for {
		at := time.Duration(s.next) * s.interval
		if s.base+at > elapsed {
			return
		}
		s.samples = append(s.samples, Sample{Offset: at, Values: s.reg.flatten()})
		s.next++
	}
}

// Stop ends sampling: the hook detaches after a final catch-up to the
// current simulated time.  Idempotent.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.v == nil {
		return
	}
	s.v.SetAdvanceHook(nil)
	s.catchUpLocked(s.v.Elapsed())
	s.v = nil
}

// Samples returns the series recorded so far (a copy of the slice; the
// value maps are shared and frozen once emitted).
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.samples...)
}

// Interval returns the configured sampling interval.
func (s *Sampler) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.interval
}

// sampleKeys returns the sorted union of value names across samples.
func sampleKeys(samples []Sample) []string {
	set := map[string]bool{}
	for _, sm := range samples {
		for k := range sm.Values {
			set[k] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MarshalSamplesJSON renders a time-series as a canonical JSON array:
// sorted keys, integer nanosecond offsets — byte-identical for equal
// series.
func MarshalSamplesJSON(samples []Sample) []byte {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, sm := range samples {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"t_ns":%d,"values":`, sm.Offset.Nanoseconds())
		writeSortedInts(&buf, sm.Values)
		buf.WriteByte('}')
	}
	buf.WriteByte(']')
	return buf.Bytes()
}

// WriteSamplesCSV renders the series as CSV: a t_ns column followed by
// the sorted union of value names.  Missing cells render as 0.
func WriteSamplesCSV(w io.Writer, samples []Sample) error {
	keys := sampleKeys(samples)
	if _, err := io.WriteString(w, "t_ns"); err != nil {
		return err
	}
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, ",%s", k); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, sm := range samples {
		if _, err := fmt.Fprintf(w, "%d", sm.Offset.Nanoseconds()); err != nil {
			return err
		}
		for _, k := range keys {
			if _, err := fmt.Fprintf(w, ",%d", sm.Values[k]); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
