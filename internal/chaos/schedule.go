// Package chaos is a deterministic fault-injection engine for the
// transaction facility: it runs concurrent multi-site transaction
// workloads against a live cluster while a scheduler injects faults -
// site and disk crashes, partitions, one-way link failures, message
// drop/duplication/latency spikes - from a seed-reproducible schedule,
// then forces full recovery and mechanically checks the DESIGN.md
// section 5 invariants.  A failing run prints its seed and fault
// timeline so the exact schedule replays bit-for-bit.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/simnet"
)

// FaultKind names one injectable fault.
type FaultKind int

const (
	// FaultCrash takes a site down (kernel memory and volatile disk
	// pages lost).
	FaultCrash FaultKind = iota
	// FaultRestart brings a crashed site back through full recovery.
	FaultRestart
	// FaultDiskCrash is a media failure: the site's disks discard their
	// volatile pages and the machine goes down with them.  (A disk that
	// silently loses writes under a live kernel is outside the paper's
	// failure model; a detected media failure crashes the site.)
	FaultDiskCrash
	// FaultPartition isolates one site from the rest of the network.
	FaultPartition
	// FaultHeal reconnects everything (partitions and one-way blocks).
	FaultHeal
	// FaultBlockLink severs message flow from one site to another in
	// that direction only (asymmetric failure).
	FaultBlockLink
	// FaultUnblockLink restores a severed one-way link.
	FaultUnblockLink
	// FaultDrop sets the network-wide message drop probability.
	FaultDrop
	// FaultDup sets the network-wide message duplication probability.
	FaultDup
	// FaultLatency sets the per-message network latency.
	FaultLatency
	// FaultCrashWrites arms a crashprobe-style deterministic fault on
	// every disk of a site: N more stable page writes succeed, then the
	// disk fails mid-write and the site goes down with it.  Unlike
	// FaultCrash the instant is defined by the workload's own I/O, so
	// the crash lands inside whatever commit is in flight.
	FaultCrashWrites
)

var kindNames = map[FaultKind]string{
	FaultCrash:       "crash",
	FaultRestart:     "restart",
	FaultDiskCrash:   "diskcrash",
	FaultPartition:   "partition",
	FaultHeal:        "heal",
	FaultBlockLink:   "block",
	FaultUnblockLink: "unblock",
	FaultDrop:        "drop",
	FaultDup:         "dup",
	FaultLatency:     "latency",
	FaultCrashWrites: "armcrash",
}

func (k FaultKind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

func kindByName(name string) (FaultKind, error) {
	for k, n := range kindNames {
		if n == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown fault kind %q", name)
}

// Fault is one scheduled injection.
type Fault struct {
	At   time.Duration // offset from run start
	Kind FaultKind
	Site simnet.SiteID // crash/restart/diskcrash/partition victim; block source
	To   simnet.SiteID // block/unblock destination
	Rate float64       // drop/dup probability
	Dur  time.Duration // latency value
	N    int           // armcrash stable-write budget
}

// String renders the fault the way ParseSchedule reads it back.
func (f Fault) String() string {
	s := fmt.Sprintf("%s:%s", f.At, f.Kind)
	switch f.Kind {
	case FaultCrash, FaultRestart, FaultDiskCrash, FaultPartition:
		s += fmt.Sprintf(":%d", f.Site)
	case FaultBlockLink, FaultUnblockLink:
		s += fmt.Sprintf(":%d>%d", f.Site, f.To)
	case FaultDrop, FaultDup:
		s += fmt.Sprintf(":%g", f.Rate)
	case FaultLatency:
		s += fmt.Sprintf(":%s", f.Dur)
	case FaultCrashWrites:
		s += fmt.Sprintf(":%d@%d", f.Site, f.N)
	}
	return s
}

// Schedule is a time-ordered fault list.
type Schedule []Fault

// String renders the whole schedule, one fault per line, indented for
// the run report.
func (sc Schedule) String() string {
	var b strings.Builder
	for _, f := range sc {
		fmt.Fprintf(&b, "  +%s\n", f.String())
	}
	return b.String()
}

// Compact renders the schedule on one line in ParseSchedule syntax.
func (sc Schedule) Compact() string {
	parts := make([]string, len(sc))
	for i, f := range sc {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// ParseSchedule reads a comma- or semicolon-separated fault list in the
// form emitted by Fault.String: "at:kind[:arg]", e.g.
//
//	100ms:crash:2,400ms:restart:2,500ms:drop:0.3,800ms:drop:0
//	120ms:block:1>3,300ms:unblock:1>3,1s:partition:2,1.4s:heal
func ParseSchedule(s string) (Schedule, error) {
	var sched Schedule
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	for _, item := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ';' }) {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		fields := strings.SplitN(item, ":", 3)
		if len(fields) < 2 {
			return nil, fmt.Errorf("chaos: bad fault %q (want at:kind[:arg])", item)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("chaos: bad fault time %q: %v", fields[0], err)
		}
		f := Fault{At: at}
		kind, err := kindByName(fields[1])
		if err != nil {
			return nil, err
		}
		f.Kind = kind
		arg := ""
		if len(fields) == 3 {
			arg = fields[2]
		}
		switch kind {
		case FaultCrash, FaultRestart, FaultDiskCrash, FaultPartition:
			n, err := strconv.Atoi(arg)
			if err != nil {
				return nil, fmt.Errorf("chaos: %s needs a site number, got %q", kind, arg)
			}
			f.Site = simnet.SiteID(n)
		case FaultBlockLink, FaultUnblockLink:
			var from, to int
			if _, err := fmt.Sscanf(arg, "%d>%d", &from, &to); err != nil {
				return nil, fmt.Errorf("chaos: %s needs from>to, got %q", kind, arg)
			}
			f.Site, f.To = simnet.SiteID(from), simnet.SiteID(to)
		case FaultDrop, FaultDup:
			r, err := strconv.ParseFloat(arg, 64)
			if err != nil || r < 0 || r > 1 {
				return nil, fmt.Errorf("chaos: %s needs a probability, got %q", kind, arg)
			}
			f.Rate = r
		case FaultLatency:
			d, err := time.ParseDuration(arg)
			if err != nil {
				return nil, fmt.Errorf("chaos: latency needs a duration, got %q", arg)
			}
			f.Dur = d
		case FaultCrashWrites:
			var site, n int
			if _, err := fmt.Sscanf(arg, "%d@%d", &site, &n); err != nil || n < 0 {
				return nil, fmt.Errorf("chaos: %s needs site@writes, got %q", kind, arg)
			}
			f.Site = simnet.SiteID(site)
			f.N = n
		case FaultHeal:
			// no argument
		}
		sched = append(sched, f)
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched, nil
}

// FaultSet is the menu GenSchedule draws from.
type FaultSet map[FaultKind]bool

// DefaultFaults enables every fault kind.
func DefaultFaults() FaultSet {
	return FaultSet{
		FaultCrash: true, FaultDiskCrash: true, FaultCrashWrites: true,
		FaultPartition: true, FaultBlockLink: true,
		FaultDrop: true, FaultDup: true, FaultLatency: true,
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
		k, err := kindByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		set[k] = true
	}
	return set, nil
}

// GenSchedule builds a random-but-reproducible schedule: the same seed,
// duration, site count and fault set always yield the identical fault
// list.  Every crash gets a matching restart, every partition and link
// block a matching heal/unblock, and every drop/dup/latency spike a
// matching clear, all within the run window; the engine's quiesce phase
// mops up anything the tail of the window cut off.
//
// Invariants the generator maintains so the run stays meaningful:
// at most one site is down at a time (crash victims are picked from up
// sites only), and at most one partition or link block is active (Heal
// clears all of them at once, so stacking would make the timeline lie).
func GenSchedule(seed int64, duration time.Duration, sites []simnet.SiteID, enabled FaultSet) Schedule {
	rng := rand.New(rand.NewSource(seed))
	var sched Schedule

	var kinds []FaultKind
	for k := range kindNames {
		if enabled[k] {
			switch k {
			case FaultRestart, FaultHeal, FaultUnblockLink:
				// implied by their causes
			default:
				kinds = append(kinds, k)
			}
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
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
		k := kinds[rng.Intn(len(kinds))]
		switch k {
		case FaultCrash, FaultDiskCrash, FaultCrashWrites:
			if t < downUntil {
				continue // wait for the previous victim's restart
			}
			victim := pickSite(0)
			f := Fault{At: t, Kind: k, Site: victim}
			if k == FaultCrashWrites {
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
			sched = append(sched, Fault{At: back, Kind: FaultRestart, Site: victim})
			down, downUntil = victim, back
		case FaultPartition:
			if t < splitUntil || len(sites) < 2 {
				continue
			}
			victim := pickSite(0)
			if t < downUntil && victim == down {
				continue // partitioning a dead site is a no-op; keep the timeline honest
			}
			heal, ok := window(t)
			if !ok {
				continue
			}
			sched = append(sched,
				Fault{At: t, Kind: FaultPartition, Site: victim},
				Fault{At: heal, Kind: FaultHeal})
			splitUntil = heal
		case FaultBlockLink:
			if t < splitUntil || len(sites) < 2 {
				continue
			}
			from := pickSite(0)
			to := pickSite(from)
			clear, ok := window(t)
			if !ok {
				continue
			}
			sched = append(sched,
				Fault{At: t, Kind: FaultBlockLink, Site: from, To: to},
				Fault{At: clear, Kind: FaultUnblockLink, Site: from, To: to})
			splitUntil = clear
		case FaultDrop, FaultDup:
			rate := float64(5+rng.Intn(20)) / 100
			clear, ok := window(t)
			if !ok {
				continue
			}
			sched = append(sched,
				Fault{At: t, Kind: k, Rate: rate},
				Fault{At: clear, Kind: k, Rate: 0})
		case FaultLatency:
			lat := time.Duration(1+rng.Intn(5)) * time.Millisecond
			clear, ok := window(t)
			if !ok {
				continue
			}
			sched = append(sched,
				Fault{At: t, Kind: FaultLatency, Dur: lat},
				Fault{At: clear, Kind: FaultLatency, Dur: 0})
		}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched
}
