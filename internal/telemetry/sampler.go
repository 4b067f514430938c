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

// Sampler cuts periodic samples of a registry.
//
// Under a Virtual clock it runs no goroutine at all: it observes the
// clock's quiescent time-advance hook and emits one sample per interval
// boundary the jump crosses.  Because every registered actor is parked
// when the hook runs, the sampled values are deterministic for a fixed
// seed, and — since it is no actor and schedules no events — an idle
// simulation never advances simulated time on its behalf.
//
// Under the real clock it runs one ticker goroutine parked in WaitRecv
// on its stop channel (the wfg.Detector stop pattern), so Stop joins it
// without leaks.
type Sampler struct {
	reg      *Registry
	interval time.Duration

	mu      sync.Mutex
	started bool
	base    time.Duration // virtual elapsed at Start
	next    int64         // index of the next boundary to emit (1-based)
	samples []Sample

	v    *vtime.Virtual
	stop chan struct{}
	done chan struct{}
}

// NewSampler builds a sampler over reg with the given interval
// (minimum 1ms real mode is not enforced; virtual mode pays nothing
// between boundaries regardless).
func NewSampler(reg *Registry, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	return &Sampler{reg: reg, interval: interval, next: 1}
}

// Start begins sampling on the given clock.  Safe to call once.
func (s *Sampler) Start(clk vtime.Clock) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	if v, ok := vtime.AsVirtual(clk); ok {
		s.v = v
		s.base = v.Elapsed()
		s.mu.Unlock()
		v.SetAdvanceHook(s.onAdvance)
		return
	}
	s.stop = make(chan struct{}, 1)
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	s.mu.Unlock()
	go s.run(clk, stop, done)
}

// onAdvance is the Virtual clock's quiescent advance observer.  It runs
// with the clock lock held: only atomics and s.mu/reg.mu are touched,
// none of which are ever held across a clock call.
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

// run is the real-clock ticker loop.  The channels arrive as parameters
// because Stop clears the struct fields while this goroutine still runs.
func (s *Sampler) run(clk vtime.Clock, stop, done chan struct{}) {
	defer close(done)
	for k := int64(1); ; k++ {
		if _, ok := vtime.WaitRecv(clk, stop, s.interval); ok {
			return
		}
		s.mu.Lock()
		s.samples = append(s.samples, Sample{Offset: time.Duration(k) * s.interval, Values: s.reg.flatten()})
		s.mu.Unlock()
	}
}

// Stop ends sampling: the virtual hook detaches (after a final
// catch-up to the current simulated time), the real-mode goroutine is
// joined.  Idempotent.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	v, stop, done := s.v, s.stop, s.done
	s.v, s.stop, s.done = nil, nil, nil
	s.mu.Unlock()
	if v != nil {
		v.SetAdvanceHook(nil)
		elapsed := v.Elapsed()
		s.mu.Lock()
		s.catchUpLocked(elapsed)
		s.mu.Unlock()
		return
	}
	if stop != nil {
		close(stop)
		<-done
	}
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
