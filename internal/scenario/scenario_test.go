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
	if !quiet.SyncPhase2 || quiet.RetryInterval != 0 || quiet.Net.CallTimeout != 0 {
		t.Errorf("zero spec must be synchronous and timer-free: %+v", quiet)
	}
	if _, ok := vtime.AsVirtual(quiet.Clock); !ok || quiet.DiskSyncDelay != 0 || quiet.Net.Latency != 0 {
		t.Errorf("zero spec must run instantaneous devices on a virtual clock: %+v", quiet)
	}
	if !quiet.PerFilePrepareLogs || quiet.Net.Seed != 7 {
		t.Errorf("base switch or seed lost: %+v", quiet)
	}
	if !quiet.LockLeases || quiet.LeaseTTL < time.Hour {
		t.Errorf("a fault-free lease must outlive the run, got TTL %v", quiet.LeaseTTL)
	}

	// One set of fault budgets, whatever the latencies.
	for _, spec := range []Spec{{Faults: true, Layers: Layers{Leases: true}}, Spec{Faults: true, Layers: Layers{Leases: true}}.At(vax)} {
		cfg := spec.config()
		if cfg.SyncPhase2 || cfg.RetryInterval != 100*time.Millisecond || cfg.LockWaitTimeout != time.Second || cfg.Net.CallTimeout != time.Second {
			t.Errorf("latency %v: got retry %v lock-wait %v call %v sync=%v", spec.Msg,
				cfg.RetryInterval, cfg.LockWaitTimeout, cfg.Net.CallTimeout, cfg.SyncPhase2)
		}
		if cfg.LeaseTTL != 500*time.Millisecond {
			t.Errorf("latency %v: lease TTL %v, want 500ms, under the lock-wait timeout", spec.Msg, cfg.LeaseTTL)
		}
	}

	sim := Spec{Layers: Layers{Placement: Eager, GroupCommit: time.Millisecond, FastPaths: true}}.At(vax).config()
	if sim.DiskSyncDelay != vax.DiskWriteTime || sim.Net.Latency != vax.MsgTime {
		t.Errorf("At(vax) must charge the model's latencies: %+v", sim)
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
