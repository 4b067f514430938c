package scenario

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/vtime"
)

// TestSpecResolvesToConfig pins what each preset means in cluster terms:
// the harnesses depend on these values, and they are written down only
// here.
func TestSpecResolvesToConfig(t *testing.T) {
	vax := costmodel.Vax750()

	quiet := Spec{Seed: 7, Layers: Layers{Leases: true}, Base: cluster.Config{PerFilePrepareLogs: true}}.config()
	if !quiet.SyncPhase2 || quiet.RetryInterval != 0 || quiet.Net.CallTimeout != 0 || quiet.Clock != nil {
		t.Errorf("zero spec must be synchronous, timer-free and on the real clock: %+v", quiet)
	}
	if !quiet.PerFilePrepareLogs || quiet.Net.Seed != 7 {
		t.Errorf("base switch or seed lost: %+v", quiet)
	}
	if !quiet.LockLeases || quiet.LeaseTTL < time.Hour {
		t.Errorf("a fault-free lease must outlive the run, got TTL %v", quiet.LeaseTTL)
	}

	for _, tc := range []struct {
		name                  string
		spec                  Spec
		retry, lockWait, call time.Duration
	}{
		{"faults, instantaneous network", Spec{Faults: true, Layers: Layers{Leases: true}}, 10 * time.Millisecond, 75 * time.Millisecond, 60 * time.Millisecond},
		{"faults at VAX latencies", Spec{Faults: true, Layers: Layers{Leases: true}}.At(vax), 100 * time.Millisecond, time.Second, time.Second},
	} {
		cfg := tc.spec.config()
		if cfg.SyncPhase2 || cfg.RetryInterval != tc.retry || cfg.LockWaitTimeout != tc.lockWait || cfg.Net.CallTimeout != tc.call {
			t.Errorf("%s: got retry %v lock-wait %v call %v sync=%v", tc.name,
				cfg.RetryInterval, cfg.LockWaitTimeout, cfg.Net.CallTimeout, cfg.SyncPhase2)
		}
		if cfg.LeaseTTL <= 0 || cfg.LeaseTTL >= cfg.LockWaitTimeout {
			t.Errorf("%s: lease TTL %v must sit under the lock-wait timeout %v", tc.name, cfg.LeaseTTL, cfg.LockWaitTimeout)
		}
	}

	sim := Spec{Layers: Layers{Placement: Eager, GroupCommit: time.Millisecond, FastPaths: true}}.At(vax).config()
	if _, ok := vtime.AsVirtual(sim.Clock); !ok || sim.DiskSyncDelay != vax.DiskWriteTime || sim.Net.Latency != vax.MsgTime {
		t.Errorf("At(vax) must run the virtual clock at the model's latencies: %+v", sim)
	}
	if !sim.AdaptivePlacement || sim.PlacementMinAccesses != 2 || sim.PlacementCooldown != 2 || !sim.FastPaths || sim.GroupCommitMaxDelay != time.Millisecond {
		t.Errorf("layers lost: %+v", sim)
	}
}

// TestBuildMountsOneVolumePerSite: site i+1 holds Volumes[i], and the
// trace collector is reachable when asked for.
func TestBuildMountsOneVolumePerSite(t *testing.T) {
	sys, err := Spec{Volumes: []string{"va", "vb"}, Trace: true}.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Cluster().Shutdown()
	for path, want := range map[string]int{"va/f": 1, "vb/f": 2} {
		if got, err := sys.Cluster().StorageSite(path); err != nil || int(got) != want {
			t.Errorf("%s stored at site %v (err %v), want %d", path, got, err, want)
		}
	}
	if Collector(sys) == nil {
		t.Error("Trace spec attached no collector")
	}
	if _, err := (Spec{Volumes: []string{"va", "va"}}).Build(); err == nil {
		t.Error("duplicate volume name must fail the build")
	}
}
