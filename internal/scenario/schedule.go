package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/simdisk"
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
	// FaultArmDisk arms one disk - Volume at Site - to fail after N more
	// stable writes (of Class only, with ByClass) and leaves the site up:
	// the crash prober's enumerated crash point.  The site goes down when
	// recovery restarts it.
	FaultArmDisk
	// FaultDropOp drops every other delivery of message Op on each link:
	// a deterministic loss that walks the caller's retry path once per
	// call.
	FaultDropOp
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
	FaultArmDisk:     "armdisk",
	FaultDropOp:      "dropop",
}

func (k FaultKind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// KindByName is the inverse of FaultKind.String.
func KindByName(name string) (FaultKind, error) {
	for k, n := range kindNames {
		if n == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown fault kind %q", name)
}

// Fault is one scheduled injection.
type Fault struct {
	At   time.Duration // offset from the clients' start (ignored for armed faults)
	Kind FaultKind
	Site simnet.SiteID // crash/restart/diskcrash/partition victim; block source
	To   simnet.SiteID // block/unblock destination
	Rate float64       // drop/dup probability
	Dur  time.Duration // latency value
	N    int           // armcrash/armdisk stable-write budget
	// armdisk: the one disk, and optionally the one I/O class, to arm.
	Volume  string
	Class   simdisk.IOKind
	ByClass bool
	Op      string // dropop: the message op to drop
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
	case FaultArmDisk:
		s += fmt.Sprintf(":%d/%s@%d", f.Site, f.Volume, f.N)
		if f.ByClass {
			s += "/" + f.Class.String()
		}
	case FaultDropOp:
		s += ":" + f.Op
	}
	return s
}

// Schedule is a time-ordered fault list.
type Schedule []Fault

// Lines renders the whole schedule, one fault per line, indented for
// the run report.
func (sc Schedule) Lines() string {
	var b strings.Builder
	for _, f := range sc {
		fmt.Fprintf(&b, "  +%s\n", f.String())
	}
	return b.String()
}

// String renders the schedule on one line in ParseSchedule syntax.
func (sc Schedule) String() string {
	parts := make([]string, len(sc))
	for i, f := range sc {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// Set parses s into the schedule: with String, the flag.Value of a
// command's -schedule flag.
func (sc *Schedule) Set(s string) (err error) {
	*sc, err = ParseSchedule(s)
	return err
}

// ParseSchedule reads a comma- or semicolon-separated fault list in the
// form emitted by Fault.String: "at:kind[:arg]", e.g.
//
//	100ms:crash:2,400ms:restart:2,500ms:drop:0.3,800ms:drop:0
//	120ms:block:1>3,300ms:unblock:1>3,1s:partition:2,1.4s:heal
//	0s:armdisk:2/v2@5/preparelog,0s:dropop:commit2
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
			return nil, fmt.Errorf("scenario: bad fault %q (want at:kind[:arg])", item)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("scenario: bad fault time %q: %v", fields[0], err)
		}
		f := Fault{At: at}
		kind, err := KindByName(fields[1])
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
				return nil, fmt.Errorf("scenario: %s needs a site number, got %q", kind, arg)
			}
			f.Site = simnet.SiteID(n)
		case FaultBlockLink, FaultUnblockLink:
			var from, to int
			if _, err := fmt.Sscanf(arg, "%d>%d", &from, &to); err != nil {
				return nil, fmt.Errorf("scenario: %s needs from>to, got %q", kind, arg)
			}
			f.Site, f.To = simnet.SiteID(from), simnet.SiteID(to)
		case FaultDrop, FaultDup:
			r, err := strconv.ParseFloat(arg, 64)
			if err != nil || r < 0 || r > 1 {
				return nil, fmt.Errorf("scenario: %s needs a probability, got %q", kind, arg)
			}
			f.Rate = r
		case FaultLatency:
			d, err := time.ParseDuration(arg)
			if err != nil {
				return nil, fmt.Errorf("scenario: latency needs a duration, got %q", arg)
			}
			f.Dur = d
		case FaultCrashWrites:
			var site, n int
			if _, err := fmt.Sscanf(arg, "%d@%d", &site, &n); err != nil || n < 0 {
				return nil, fmt.Errorf("scenario: %s needs site@writes, got %q", kind, arg)
			}
			f.Site = simnet.SiteID(site)
			f.N = n
		case FaultArmDisk:
			disk, budget, _ := strings.Cut(arg, "@")
			site, vol, _ := strings.Cut(disk, "/")
			n, class, byClass := strings.Cut(budget, "/")
			id, err1 := strconv.Atoi(site)
			f.N, err = strconv.Atoi(n)
			if byClass {
				f.Class, f.ByClass = simdisk.KindByName(class)
			}
			if err1 != nil || err != nil || f.N < 0 || vol == "" || byClass != f.ByClass {
				return nil, fmt.Errorf("scenario: %s needs site/volume@writes[/class], got %q", kind, arg)
			}
			f.Site, f.Volume = simnet.SiteID(id), vol
		case FaultDropOp:
			if f.Op = arg; arg == "" {
				return nil, fmt.Errorf("scenario: %s needs a message op", kind)
			}
		case FaultHeal:
			// no argument
		}
		sched = append(sched, f)
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched, nil
}
