// Package scenario is the single source from which every harness builds
// and drives its simulated cluster.  A Spec is a cluster.Config - seed,
// latencies and optional protocol layers, in the cluster's own fields -
// plus the topology and the harness's switches, and Build turns it into
// a running core.System; a Scenario adds the workload - setup, client
// functions, a fault schedule, a recovery mode, a check - and Run drives
// it through the one loop every harness shares: build, setup, clients
// racing the schedule, recovery, the DESIGN.md section 5 audit.  The
// chaos engine, the benchmark drivers and the trace/monitor tools all
// describe what they need as a Scenario value, so a new layer is a
// cluster.Config field and one flag of LayerFlags, which binds locus
// chaos's flags and the scenario files' spec lines alike.  A Script is a
// workload as data: a scenario file (testdata/scenarios), which locus run
// replays and the crash prober replays once per crash point.
package scenario

import (
	"flag"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/placement"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Eager is the hair-trigger placement policy of the fault harnesses: two
// remote accesses move a file and two more may move it again, so
// ownership moves are guaranteed to be in flight when a fault or crash
// point lands.
var Eager = placement.Config{MinAccesses: 2, Cooldown: 2}

// LayerFlags binds the optional protocol layers (DESIGN.md sections 10,
// 13, 14 and the group-commit daemon) to the -groupcommit, -fastpaths,
// -leases and -placement flags, each flag's default being the field's
// current value.
func (s *Spec) LayerFlags(fs *flag.FlagSet) {
	fs.DurationVar(&s.GroupCommitMaxDelay, "groupcommit", s.GroupCommitMaxDelay, "enable the group-commit log daemon with this linger, spent only after a flush of two or more records (0 = synchronous log forces)")
	fs.BoolVar(&s.FastPaths, "fastpaths", s.FastPaths, "enable the commit fast paths (read-only votes, one-phase commit)")
	fs.BoolVar(&s.LockLeases, "leases", s.LockLeases, "enable sticky lock leases (a lease stands until a conflicting request revokes it or its holder or storage site goes down, so revokes and leaseholder crashes interleave with the faults)")
	fs.Var(placementFlag{&s.Config}, "placement", "enable locality-adaptive placement with the Eager knobs, so ownership moves and routed commits are in flight when a fault lands")
}

// placementFlag is the -placement switch: on is adaptive placement with
// the Eager policy, off the static layout.
type placementFlag struct{ cfg *cluster.Config }

func (f placementFlag) IsBoolFlag() bool { return true }
func (f placementFlag) String() string {
	return strconv.FormatBool(f.cfg != nil && f.cfg.AdaptivePlacement)
}
func (f placementFlag) Set(s string) error {
	on, err := strconv.ParseBool(s)
	if err == nil {
		f.cfg.AdaptivePlacement, f.cfg.Placement = on, placement.Config{}
		if on {
			f.cfg.Placement = Eager
		}
	}
	return err
}

// Spec describes one simulated cluster: the cluster.Config it runs
// (topology aside, the zero value of every field is the paper-exact
// behavior) and the harness's own switches.  Every cluster runs on its
// own discrete-event clock, so a run replays from its seed (Net.Seed):
// the latencies (DiskSyncDelay, Net.Latency) elapse as timestamp
// arithmetic, and the goroutine that calls Build is the clock's first
// actor.  Build sets the clock, SyncPhase2 and the trace collector
// itself, and the fault budgets under Faults.
type Spec struct {
	cluster.Config

	// Volumes names one volume per site: Volumes[i] is mounted at site
	// i+1.  PerSite(n) gives the "v1".."vn" layout.
	Volumes []string

	// Faults prepares the cluster for injected faults: phase two runs
	// asynchronously, and the call and lock-wait budgets are short
	// enough that a lost message or a dead site is noticed - and
	// recovered from - inside a chaos window.  Without it phase two is
	// synchronous and no background timer runs while nothing fails, so a
	// serial workload performs the same I/Os in the same order on every
	// replay.
	Faults bool

	// Trace attaches a causal event collector (Collector(sys) returns
	// it) as the Config's Trace; Profile enables commit critical-path
	// profiling on the metrics registry.
	Trace   bool
	Profile bool
}

// PerSite names the standard harness layout: n sites, site i holding
// volume "v<i>".
func PerSite(n int) []string {
	vols := make([]string, n)
	for i := range vols {
		vols[i] = fmt.Sprintf("v%d", i+1)
	}
	return vols
}

// At returns the spec charging the cost model's latencies: one forced
// disk write and one message hop.
func (s Spec) At(m costmodel.Model) Spec {
	s.DiskSyncDelay, s.Net.Latency = m.DiskWriteTime, m.MsgTime
	return s
}

// config resolves the spec into the cluster configuration Build uses.
func (s Spec) config() cluster.Config {
	cfg := s.Config
	cfg.SyncPhase2 = !s.Faults
	cfg.Clock = vtime.NewVirtual()
	cfg.Trace = nil // the Trace switch is the one way to attach a collector
	if s.Trace {
		cfg.Trace = trace.NewCollector(0)
	}
	if s.Faults {
		// Lost commit messages, coordinator crashes and the retry path
		// only interleave when phase two is asynchronous.  The budgets
		// fit the paper's testbed: a two-hop prepare at 8ms per message
		// plus a 26ms log force fits many times over.
		cfg.LockWaitTimeout, cfg.Net.CallTimeout = time.Second, time.Second
	}
	return cfg
}

// Build starts the cluster: one site per volume, every volume mounted.
// The caller owns the system and must Shutdown its cluster.
func (s Spec) Build() (*core.System, error) {
	sys := core.NewSystem(s.config())
	if s.Profile {
		sys.Stats().Registry().EnableProfiling()
	}
	for i, vol := range s.Volumes {
		id := simnet.SiteID(i + 1)
		sys.AddSite(id)
		if err := sys.AddVolume(id, vol); err != nil {
			sys.Cluster().Shutdown()
			return nil, fmt.Errorf("scenario: mount %s at site %v: %w", vol, id, err)
		}
	}
	return sys, nil
}

// Collector returns the event collector a Trace spec attached, nil
// (valid, and silent) otherwise.
func Collector(sys *core.System) *trace.Collector { return sys.Cluster().Config().Trace }
