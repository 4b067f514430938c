// Package scenario is the single source from which every harness builds
// and drives its simulated cluster.  A Spec names the topology, the clock
// and the optional protocol layers, and Build turns it into a running
// core.System; a Scenario adds the workload - setup, client functions, a
// fault schedule, a recovery mode, a check - and Run drives it through
// the one loop every harness shares: build, setup, clients racing the
// schedule, recovery, the DESIGN.md section 5 audit.  The chaos engine,
// the crash prober, the benchmark drivers and the trace/monitor tools
// all describe what they need as a Scenario value, so a new layer,
// preset or protocol is wired in here once.
package scenario

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Placement is the adaptive-placement policy a scenario runs: a file
// moves once a remote site dominates at least MinAccesses decayed
// accesses, and may move again Cooldown accesses later.  The zero value
// leaves placement off (the paper's static layout).
type Placement struct {
	MinAccesses float64
	Cooldown    int64
}

// Eager is the hair-trigger policy of the fault harnesses: two remote
// accesses move a file and two more may move it again, so ownership
// moves are guaranteed to be in flight when a fault or crash point lands.
var Eager = Placement{MinAccesses: 2, Cooldown: 2}

// Layers selects the optional protocol layers (DESIGN.md sections 10,
// 13, 14 and the group-commit daemon); the zero value is the paper's
// protocol.  GroupCommit is the batching linger; zero keeps one force per
// log record.
type Layers struct {
	GroupCommit time.Duration
	FastPaths   bool
	Leases      bool
	Placement   Placement
}

// Spec describes one simulated cluster.  The zero value of every field
// is the paper-exact behavior on the real clock.
type Spec struct {
	// Volumes names one volume per site: Volumes[i] is mounted at site
	// i+1.  PerSite(n) gives the "v1".."vn" layout.
	Volumes []string
	// Seed drives the simulated network's randomness.
	Seed int64

	// Virtual runs the cluster on a discrete-event clock: the latencies
	// below elapse as timestamp arithmetic instead of sleeps.  The
	// goroutine that calls Build is the clock's first actor.
	Virtual bool
	// Disk is charged per forced disk I/O and Msg per message hop, on
	// either clock.  At fills both from a cost model.
	Disk, Msg time.Duration

	// Faults prepares the cluster for injected faults: phase two runs
	// asynchronously behind a retry timer, and the call, lock-wait and
	// lease budgets are short enough that a lost message or a dead site
	// is noticed - and recovered from - inside a chaos window.  Without
	// it phase two is synchronous and no background timer runs, so a
	// serial workload performs the same I/Os in the same order on every
	// replay.
	Faults bool

	Layers

	// Trace attaches a causal event collector (Collector(sys) returns
	// it); Profile enables commit critical-path profiling on the metrics
	// registry.
	Trace   bool
	Profile bool

	// Base carries an ablation switch or volume geometry for the paper's
	// section 6 experiments; the fields above are overlaid on it.
	Base cluster.Config
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

// At returns the spec on the virtual clock charging the cost model's
// latencies: one forced disk write and one message hop.
func (s Spec) At(m costmodel.Model) Spec {
	s.Virtual, s.Disk, s.Msg = true, m.DiskWriteTime, m.MsgTime
	return s
}

// config resolves the spec into the cluster configuration Build uses.
func (s Spec) config() cluster.Config {
	cfg := s.Base
	cfg.SyncPhase2 = !s.Faults
	cfg.DiskSyncDelay = s.Disk
	cfg.Net.Latency = s.Msg
	cfg.Net.Seed = s.Seed
	cfg.GroupCommitMaxDelay = s.GroupCommit
	cfg.FastPaths = s.FastPaths
	if s.Virtual {
		cfg.Clock = vtime.NewVirtual()
	}
	if s.Trace {
		cfg.Trace = trace.NewCollector(0)
	}
	// A lease normally outlives the run, so the steady state of repeated
	// access shows; under faults it must instead sit below the lock-wait
	// timeout, so a waiter blocked on an unreachable leaseholder (revoke
	// lost to a partition) sees the lease expire before its own wait
	// gives up.
	leaseTTL := time.Hour
	if s.Faults {
		// Lost commit messages, coordinator crashes and the retry path
		// only interleave when phase two is asynchronous.  The budgets
		// scale with the network: a two-hop prepare at 8ms per message
		// plus a 26ms log force outlasts the instantaneous-network
		// budgets many times over.
		cfg.RetryInterval, cfg.LockWaitTimeout, cfg.Net.CallTimeout = 10*time.Millisecond, 75*time.Millisecond, 60*time.Millisecond
		leaseTTL = 50 * time.Millisecond
		if s.Msg > 0 {
			cfg.RetryInterval, cfg.LockWaitTimeout, cfg.Net.CallTimeout = 100*time.Millisecond, time.Second, time.Second
			leaseTTL = 500 * time.Millisecond
		}
	}
	if s.Leases {
		cfg.LockLeases, cfg.LeaseTTL = true, leaseTTL
	}
	if s.Placement != (Placement{}) {
		cfg.AdaptivePlacement = true
		cfg.PlacementMinAccesses = s.Placement.MinAccesses
		cfg.PlacementCooldown = s.Placement.Cooldown
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
