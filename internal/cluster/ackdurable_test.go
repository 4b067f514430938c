package cluster

import (
	"testing"

	"repro/internal/fs"
	"repro/internal/lockmgr"
	"repro/internal/simdisk"
	"repro/internal/tpc"
)

// TestPhase2AckRequiresDurableFinish pins the participant half of the
// phase-two ordering contract: the coordinator deletes its log record as
// soon as every participant acknowledges, so an acknowledgement may only
// be sent once the participant's prepare record is durably gone.  Here
// the deletion write crashes the disk mid-finish: the phase-two handler
// must return an error (withholding the ack) and keep the prepared entry
// so a coordinator retry can re-drive it - not swallow the failure and
// ack with a stale prepare record still on stable storage.
func TestPhase2AckRequiresDurableFinish(t *testing.T) {
	const txid = "ACKDURABLE"
	setup := func(t *testing.T) *Site {
		t.Helper()
		cl := New(Config{SyncPhase2: true})
		cl.AddSite(1)
		cl.AddSite(3)
		if err := cl.AddVolume(1, "va"); err != nil {
			t.Fatal(err)
		}
		s1 := cl.Site(1)
		pid := cl.NewPID()
		s1.Procs().NewProcess(pid, 0)
		if err := s1.Create("va/f"); err != nil {
			t.Fatal(err)
		}
		id, _, err := s1.Open("va/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Lock(id, pid, txid, lockmgr.ModeExclusive, 0, 8, false, false, false); err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Write(id, pid, txid, 0, []byte("COMMITME")); err != nil {
			t.Fatal(err)
		}
		if _, err := s1.kernel().prepare(prepareReq{Txid: txid, FileIDs: []string{"va/f"}, Coord: 3}); err != nil {
			t.Fatal(err)
		}
		return s1
	}

	// Counting run: learn how many meta-class writes (the log-record
	// deletion rides this class) a clean phase two performs.
	clean := setup(t)
	before := clean.Volume("va").Disk().StableWritesOfKind(simdisk.IOMeta)
	if err := clean.kernel().handleCommit2(txnReq{Txid: txid}); err != nil {
		t.Fatal(err)
	}
	metaWrites := clean.Volume("va").Disk().StableWritesOfKind(simdisk.IOMeta) - before
	if metaWrites < 1 {
		t.Fatalf("clean phase two performed %d meta writes; cannot target the deletion", metaWrites)
	}

	// Replay with the disk armed to crash on the last of them: the
	// prepare-record deletion.
	s1 := setup(t)
	d := s1.Volume("va").Disk()
	d.CrashAfterWritesOfKind(simdisk.IOMeta, int(metaWrites)-1)

	err := s1.kernel().handleCommit2(txnReq{Txid: txid})
	if !d.Crashed() {
		t.Fatal("phase two never attempted the prepare-record deletion")
	}
	if err == nil {
		t.Fatal("participant acked phase two although its prepare-record deletion never reached disk")
	}

	// The prepared entry must survive the failed finish for the retry.
	s1.kernel().mu.Lock()
	_, still := s1.kernel().prepared[txid]
	s1.kernel().mu.Unlock()
	if !still {
		t.Fatal("prepared entry dropped despite failed finish; a coordinator retry could not re-drive it")
	}

	// And the record really is still on stable storage: exactly the
	// state the withheld ack promises recovery will re-resolve.
	d.Restart()
	v2, err := fs.Load("va", d)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := tpc.ReadPrepareRecords(v2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.Txid == txid {
			found = true
		}
	}
	if !found {
		t.Fatal("prepare record missing from stable storage although the deletion write crashed")
	}
}
