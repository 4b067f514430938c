package scenario

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/simdisk"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// TestSpecResolvesToConfig pins what a spec means in cluster terms: the
// settings Build makes itself, At's latencies, and the one field each
// spec line sets.  The harnesses depend on these values, and they are
// written down only here.
func TestSpecResolvesToConfig(t *testing.T) {
	vax := costmodel.Vax750()

	quiet := Spec{}.config()
	if !quiet.SyncPhase2 || quiet.Net.CallTimeout != 0 {
		t.Errorf("zero spec must be synchronous with the default call timeout: %+v", quiet)
	}
	if _, ok := vtime.AsVirtual(quiet.Clock); !ok || quiet.DiskSyncDelay != 0 || quiet.Net.Latency != 0 {
		t.Errorf("zero spec must run instantaneous devices on a virtual clock: %+v", quiet)
	}

	// One set of fault budgets, whatever the latencies.
	for _, spec := range []Spec{{Faults: true}, Spec{Faults: true}.At(vax)} {
		cfg := spec.config()
		if cfg.SyncPhase2 || cfg.LockWaitTimeout != time.Second || cfg.Net.CallTimeout != time.Second {
			t.Errorf("latency %v: got lock-wait %v call %v sync=%v", spec.Net.Latency,
				cfg.LockWaitTimeout, cfg.Net.CallTimeout, cfg.SyncPhase2)
		}
	}

	sim := Spec{}.At(vax).config()
	if sim.DiskSyncDelay != vax.DiskWriteTime || sim.Net.Latency != vax.MsgTime {
		t.Errorf("At(vax) must charge the model's latencies: %+v", sim)
	}

	// The Trace switch is the one way to attach a collector.
	if (Spec{Trace: true}).config().Trace == nil || (Spec{Config: cluster.Config{Trace: trace.NewCollector(0)}}).config().Trace != nil {
		t.Error("the collector must follow the Trace switch")
	}

	// Each spec line help lists sets the Spec, cluster.Config or fs.Volume
	// fields it names (sorted), and nothing else.
	lines := []struct{ line, fields string }{
		{"sites 2", "Volumes"},
		{"volumes va vb", "Volumes"},
		{"seed 7", "Net.Seed"},
		{"faults", "Faults"},
		{"groupcommit 5ms", "GroupCommitMaxDelay"},
		{"fastpaths", "FastPaths"},
		{"leases", "LockLeases"},
		{"placement", "AdaptivePlacement Placement.Cooldown Placement.MinAccesses"},
		{"doublelog", "DoubleLogWrite"},
		{"perfileprepare", "PerFilePrepareLogs"},
		{"prefetch", "PrefetchOnLock"},
		{"cleancache", "CleanCacheForDiff"},
		{"vax750", "DiskSyncDelay Net.Latency"},
	}
	_, listed, _ := strings.Cut(wordList[len(wordList)-1], ": ")
	var named []string
	set := func(line string) map[string]any {
		s := &session{}
		s.specLines()
		if line != "" {
			if err := s.setSpec(strings.Fields(line)); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		}
		got := map[string]any{}
		leaves("", reflect.ValueOf(s.spec), got)
		leaves("", reflect.ValueOf(&s.volOptions).Elem(), got)
		return got
	}
	zero := set("")
	for _, l := range lines {
		named = append(named, strings.Fields(l.line)[0])
		var changed []string
		for name, v := range set(l.line) {
			if !reflect.DeepEqual(v, zero[name]) {
				changed = append(changed, name)
			}
		}
		if slices.Sort(changed); strings.Join(changed, " ") != l.fields {
			t.Errorf("%q sets %v, want %s", l.line, changed, l.fields)
		}
	}
	if got := strings.Join(named, ", "); got != listed {
		t.Errorf("the table covers %q, help lists %q", got, listed)
	}
	if s := set("placement"); s["Placement.MinAccesses"] != Eager.MinAccesses || s["Placement.Cooldown"] != Eager.Cooldown {
		t.Errorf("placement must set the Eager policy: %v", s)
	}
}

// leaves flattens v's exported fields, through embedded and nested
// structs, into out by dotted name.
func leaves(prefix string, v reflect.Value, out map[string]any) {
	for i := range v.NumField() {
		switch f, fv := v.Type().Field(i), v.Field(i); {
		case !f.IsExported():
		case f.Anonymous:
			leaves(prefix, fv, out)
		case fv.Kind() == reflect.Struct:
			leaves(prefix+f.Name+".", fv, out)
		default:
			out[prefix+f.Name] = fv.Interface()
		}
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
		if err := sys.Cluster().Site(1).Create(path); err != nil {
			t.Fatal(err)
		}
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

// TestEveryFaultKindRoundTrips: each of the thirteen fault kinds is
// written by Fault.String and read back by ParseSchedule, so a schedule,
// a session word and an armed fault share one spelling.
func TestEveryFaultKindRoundTrips(t *testing.T) {
	sched := Schedule{
		{At: 0, Kind: FaultCrash, Site: 1},
		{At: 1, Kind: FaultRestart, Site: 1},
		{At: 2, Kind: FaultDiskCrash, Site: 2},
		{At: 3, Kind: FaultPartition, Site: 3},
		{At: 4, Kind: FaultHeal},
		{At: 5, Kind: FaultBlockLink, Site: 1, To: 2},
		{At: 6, Kind: FaultUnblockLink, Site: 1, To: 2},
		{At: 7, Kind: FaultDrop, Rate: 0.25},
		{At: 8, Kind: FaultDup, Rate: 0.5},
		{At: 9, Kind: FaultLatency, Dur: 4 * time.Millisecond},
		{At: 10, Kind: FaultCrashWrites, Site: 2, N: 17},
		{At: 11, Kind: FaultArmDisk, Site: 2, Volume: "v2", N: 5},
		{At: 12, Kind: FaultArmDisk, Site: 2, Volume: "v2", N: 5, Class: simdisk.IOPrepareLog, ByClass: true},
		{At: 13, Kind: FaultDropOp, Op: "commit2"},
	}
	back, err := ParseSchedule(sched.String())
	if err != nil || !reflect.DeepEqual(back, sched) {
		t.Fatalf("ParseSchedule(%q) = %v, %v", sched, back, err)
	}
	for _, bad := range []string{"0s:armdisk:2@5", "0s:armdisk:2/v2@x", "0s:armdisk:2/v2@5/nosuch", "0s:dropop"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted garbage", bad)
		}
	}
}

// TestApplyNamesAMissingSite: a fault aimed at a site or disk the cluster
// lacks is an error from Apply, not a silent no-op.
func TestApplyNamesAMissingSite(t *testing.T) {
	_, err := Run(Scenario{Spec: Spec{Volumes: PerSite(2)}, Clients: []func(*Env){func(e *Env) {
		for _, f := range []Fault{{Kind: FaultCrash, Site: 9}, {Kind: FaultArmDisk, Site: 1, Volume: "v9"}} {
			if err := e.Apply(f); err == nil {
				t.Errorf("Apply(%s) on a 2-site cluster succeeded", f)
			}
		}
		Ok(e.Apply(Fault{Kind: FaultBlockLink, Site: 1, To: 2}))
	}}})
	if err != nil {
		t.Fatal(err)
	}
}
