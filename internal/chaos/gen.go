package chaos

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/simnet"
)

// FaultSet is the menu GenSchedule draws from.
type FaultSet map[scenario.FaultKind]bool

// DefaultFaults enables every fault kind.
func DefaultFaults() FaultSet {
	return FaultSet{
		scenario.FaultCrash: true, scenario.FaultDiskCrash: true, scenario.FaultCrashWrites: true,
		scenario.FaultPartition: true, scenario.FaultBlockLink: true,
		scenario.FaultDrop: true, scenario.FaultDup: true, scenario.FaultLatency: true,
	}
}

// ParseFaults reads a comma-separated kind list ("crash,partition,drop").
// Restart, heal and unblock are implied by their causes.
func ParseFaults(s string) (FaultSet, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return DefaultFaults(), nil
	}
	set := FaultSet{}
	for _, name := range strings.Split(s, ",") {
		k, err := scenario.KindByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		set[k] = true
	}
	return set, nil
}

// kinds lists the set's enabled kinds in kind order.
func (fs FaultSet) kinds() []scenario.FaultKind {
	var kinds []scenario.FaultKind
	for k, on := range fs {
		if on {
			kinds = append(kinds, k)
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// String renders the set the way ParseFaults reads it back ("all" for
// the default menu); with Set it is the flag.Value of -faults.
func (fs FaultSet) String() string {
	kinds := fs.kinds()
	if slices.Equal(kinds, DefaultFaults().kinds()) {
		return "all"
	}
	names := make([]string, 0, len(kinds))
	for _, k := range kinds {
		names = append(names, k.String())
	}
	return strings.Join(names, ",")
}

// Set parses s into the set.
func (fs *FaultSet) Set(s string) (err error) {
	*fs, err = ParseFaults(s)
	return err
}

// GenSchedule builds a random-but-reproducible schedule: the same seed,
// duration, site count and fault set always yield the identical fault
// list.  Every crash gets a matching restart, every partition and link
// block a matching heal/unblock, and every drop/dup/latency spike a
// matching clear, all within the run window; the run's recovery phase
// mops up anything the tail of the window cut off.
//
// Invariants the generator maintains so the run stays meaningful:
// at most one site is down at a time (crash victims are picked from up
// sites only), and at most one partition or link block is active (Heal
// clears all of them at once, so stacking would make the timeline lie).
func GenSchedule(seed int64, duration time.Duration, sites []simnet.SiteID, enabled FaultSet) scenario.Schedule {
	rng := rand.New(rand.NewSource(seed))
	var sched scenario.Schedule

	var kinds []scenario.FaultKind
	for _, k := range enabled.kinds() {
		switch k {
		case scenario.FaultRestart, scenario.FaultHeal, scenario.FaultUnblockLink:
			// implied by their causes
		default:
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 || len(sites) == 0 || duration <= 0 {
		return nil
	}

	step := duration / 10
	if step < 10*time.Millisecond {
		step = 10 * time.Millisecond
	}
	down := simnet.SiteID(0)       // the currently-down site, if any
	downUntil := time.Duration(0)  // its scheduled restart time
	splitUntil := time.Duration(0) // partition/block active until then

	jitter := func(base time.Duration) time.Duration {
		d := base/2 + time.Duration(rng.Int63n(int64(base)))
		if d >= 2*time.Millisecond {
			d = d.Truncate(time.Millisecond) // readable timelines
		}
		return d
	}
	// window draws when a fault injected at t clears: a jittered two
	// steps later, clamped inside the run; !ok when no room is left.
	window := func(t time.Duration) (end time.Duration, ok bool) {
		end = t + jitter(2*step)
		if end >= duration {
			end = duration - step/4
		}
		return end, end > t
	}
	pickSite := func(exclude simnet.SiteID) simnet.SiteID {
		for {
			s := sites[rng.Intn(len(sites))]
			if s != exclude {
				return s
			}
		}
	}

	for t := jitter(step); t < duration; t += jitter(step) {
		// pair schedules on at t and off when its window clears; it
		// reports that instant, or !ok (nothing scheduled) when no room
		// is left in the run.
		pair := func(on, off scenario.Fault) (end time.Duration, ok bool) {
			if end, ok = window(t); ok {
				on.At, off.At = t, end
				sched = append(sched, on, off)
			}
			return end, ok
		}
		k := kinds[rng.Intn(len(kinds))]
		switch k {
		case scenario.FaultCrash, scenario.FaultDiskCrash, scenario.FaultCrashWrites:
			if t < downUntil {
				continue // wait for the previous victim's restart
			}
			victim := pickSite(0)
			f := scenario.Fault{At: t, Kind: k, Site: victim}
			if k == scenario.FaultCrashWrites {
				// A small budget so the crash lands inside commits the
				// live workload is running right now.
				f.N = 2 + rng.Intn(40)
			}
			sched = append(sched, f)
			// Down for one to three steps, restart inside the window.
			back, ok := window(t)
			if !ok {
				back = t + step/4
			}
			sched = append(sched, scenario.Fault{At: back, Kind: scenario.FaultRestart, Site: victim})
			down, downUntil = victim, back
		case scenario.FaultPartition:
			if t < splitUntil || len(sites) < 2 {
				continue
			}
			victim := pickSite(0)
			if t < downUntil && victim == down {
				continue // partitioning a dead site is a no-op; keep the timeline honest
			}
			if heal, ok := pair(scenario.Fault{Kind: scenario.FaultPartition, Site: victim}, scenario.Fault{Kind: scenario.FaultHeal}); ok {
				splitUntil = heal
			}
		case scenario.FaultBlockLink:
			if t < splitUntil || len(sites) < 2 {
				continue
			}
			from := pickSite(0)
			to := pickSite(from)
			if clear, ok := pair(scenario.Fault{Kind: scenario.FaultBlockLink, Site: from, To: to},
				scenario.Fault{Kind: scenario.FaultUnblockLink, Site: from, To: to}); ok {
				splitUntil = clear
			}
		case scenario.FaultDrop, scenario.FaultDup:
			rate := float64(5+rng.Intn(20)) / 100
			pair(scenario.Fault{Kind: k, Rate: rate}, scenario.Fault{Kind: k})
		case scenario.FaultLatency:
			lat := time.Duration(1+rng.Intn(5)) * time.Millisecond
			pair(scenario.Fault{Kind: k, Dur: lat}, scenario.Fault{Kind: k})
		}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched
}
