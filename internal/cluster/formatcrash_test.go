package cluster_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/invariant"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// TestCrashInFirstInstallFormat: site 2 crashes while the volume its
// first install of v1/b formats is parked in one of the format's two
// forces - the zeroing batch or the superblock, the commit point.  The
// move is refused: after a restart site 2 has no volume v1, the catalog
// records no copy there, and the section 5 audit is clean.
func TestCrashInFirstInstallFormat(t *testing.T) {
	for _, tc := range []struct {
		name          string
		halfForces    int   // the crash lands this many half forces into the install
		forced, wrote int64 // what the format had charged when it did
	}{
		{"zeroing", 1, 1, 0},
		{"superblock", 3, 2, 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := scenario.Spec{Config: cluster.Config{AdaptivePlacement: true, Placement: scenario.Eager}, Volumes: scenario.PerSite(2)}
			sys, err := spec.At(costmodel.Vax750()).Build()
			if err != nil {
				t.Fatal(err)
			}
			cl := sys.Cluster()
			defer cl.Shutdown()
			clk, s2 := cl.Clock(), cl.Site(2)
			if err := writeOnce(sys, "v1/b"); err != nil {
				t.Fatal(err)
			}

			parked, release := make(chan struct{}, 1), make(chan struct{}, 1)
			s2.Stall("install", func() {
				vtime.NotifySend(clk, parked, struct{}{})
				vtime.WaitRecv(clk, release, 0)
			})
			g := vtime.NewGroup(clk)
			g.Go(func() { // heat v1/b from site 2 until the crash ends it
				for i := 0; i < 8 && writeOnce(sys, "v1/b") == nil; i++ {
				}
			})
			vtime.WaitRecv(clk, parked, 0)
			s2.Stall("install", nil)
			before := cl.Stats().Snapshot()
			vtime.NotifySend(clk, release, struct{}{})
			clk.Sleep(time.Duration(tc.halfForces) * cl.Config().DiskSyncDelay / 2)
			in := cl.Stats().Snapshot().Sub(before)
			if in.Get(stats.ForcedIOs) != tc.forced || in.Get(stats.DiskWrites) != tc.wrote {
				t.Fatalf("at the crash the install had %d forces and %d writes, want %d and %d (parked in the format)",
					in.Get(stats.ForcedIOs), in.Get(stats.DiskWrites), tc.forced, tc.wrote)
			}
			s2.Crash()
			g.Wait()
			if err := s2.Restart(); err != nil {
				t.Fatal(err)
			}

			if s2.Volume("v1") != nil {
				t.Error("site 2 serves a volume v1 after the format was cut short")
			}
			if home, err := cl.StorageSite("v1/b"); err != nil || home != 1 {
				t.Errorf("catalog home of v1/b = %v, %v; want site1", home, err)
			}
			if recorded, _ := cl.ReplicaCopy("v1/b", 2); recorded {
				t.Error("catalog records a replica of v1/b at site 2")
			}
			if err := invariant.Drain(cl, clk, 10*time.Minute); err != nil {
				t.Fatal(err)
			}
			if rep := invariant.Audit(cl, nil, []string{"v1/b"}, nil); !rep.OK() {
				t.Fatalf("audit after the restart: %v", rep.Violations())
			}
		})
	}
}

// writeOnce commits one write to path from a new process at site 2,
// creating the file the first time.
func writeOnce(sys *core.System, path string) error {
	p, err := sys.NewProcess(2)
	if err != nil {
		return err
	}
	f, err := p.Open(path)
	if err != nil {
		if f, err = p.Create(path); err != nil {
			return err
		}
	}
	if _, err := p.BeginTrans(); err != nil {
		return err
	}
	if _, err := f.WriteAt([]byte("site two"), 0); err != nil {
		return err
	}
	if err := p.EndTrans(); err != nil {
		return err
	}
	return f.Close()
}
