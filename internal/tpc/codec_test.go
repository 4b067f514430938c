package tpc

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/lockmgr"
	"repro/internal/proc"
	"repro/internal/shadow"
	"repro/internal/simnet"
)

func TestCoordCodecRoundTrip(t *testing.T) {
	recs := []CoordRecord{
		{Txid: "T1", Status: StatusUnknown},
		{
			Txid:   "site1-42",
			Status: StatusCommitted,
			Files: []proc.FileRef{
				{FileID: "vol0/accounts", StorageSite: 1},
				{FileID: "vol1/audit", StorageSite: 3},
			},
		},
		{Txid: "", Status: StatusAborted, Files: []proc.FileRef{{FileID: "", StorageSite: 0}}},
	}
	for _, rec := range recs {
		got, err := decodeCoordRecord(appendCoordRecord(nil, &rec))
		if err != nil {
			t.Fatalf("decode(%+v): %v", rec, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip: got %+v, want %+v", got, rec)
		}
	}
}

func TestCoordRecordStatusFlipKeepsSize(t *testing.T) {
	// The commit point (section 4.3) depends on the status flip
	// re-encoding to the same payload length, so the log store overwrites
	// the record in place with a single I/O.
	rec := CoordRecord{
		Txid:   "site2-17",
		Status: StatusUnknown,
		Files: []proc.FileRef{
			{FileID: "vol0/a", StorageSite: 1},
			{FileID: "vol0/b", StorageSite: 2},
		},
	}
	n := len(appendCoordRecord(nil, &rec))
	for _, st := range []Status{StatusCommitted, StatusAborted} {
		rec.Status = st
		if got := len(appendCoordRecord(nil, &rec)); got != n {
			t.Fatalf("status %v re-encodes to %d bytes, want %d", st, got, n)
		}
	}
}

func TestPrepareCodecRoundTrip(t *testing.T) {
	rec := PrepareRecord{
		Txid:      "site1-7",
		CoordSite: 2,
		Files: []PreparedFile{
			{
				FileID: "vol0/accounts",
				Intentions: shadow.IntentionsList{
					Ino:     5,
					NewSize: 8192,
					Entries: []shadow.Intention{
						{Logical: 0, Base: 12, Shadow: 40, Ranges: []shadow.Range{{Off: 0, Len: 128}, {Off: 512, Len: 64}}},
						{Logical: 3, Base: -1, Shadow: 41, Ranges: []shadow.Range{{Off: 8, Len: 8}}},
					},
				},
			},
			{FileID: "vol0/empty", Intentions: shadow.IntentionsList{Ino: 9}},
		},
		Locks: []LockInfo{
			{FileID: "vol0/accounts", Mode: lockmgr.ModeExclusive, Off: 0, Len: 128},
			{FileID: "vol0/accounts", Mode: lockmgr.ModeShared, Off: 512, Len: 64},
		},
	}
	got, err := decodePrepareRecord(appendPrepareRecord(nil, &rec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip:\n got  %+v\n want %+v", got, rec)
	}
}

func TestPrepareRecordRoundTripProperty(t *testing.T) {
	// Randomized round-trip over the string/int fields the codec touches.
	f := func(txid, fileID string, site int16, ino int16, newSize int64, logical, base, sh int16, off, length int32, mode uint8) bool {
		rec := PrepareRecord{
			Txid:      txid,
			CoordSite: simnet.SiteID(site),
			Files: []PreparedFile{{
				FileID: fileID,
				Intentions: shadow.IntentionsList{
					Ino:     int(ino),
					NewSize: newSize,
					Entries: []shadow.Intention{{
						Logical: int(logical), Base: int(base), Shadow: int(sh),
						Ranges: []shadow.Range{{Off: int(off), Len: int(length)}},
					}},
				},
			}},
			Locks: []LockInfo{{FileID: fileID, Mode: lockmgr.Mode(mode % 3), Off: int64(off), Len: int64(length)}},
		}
		got, err := decodePrepareRecord(appendPrepareRecord(nil, &rec))
		return err == nil && reflect.DeepEqual(got, rec)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruptPayloads(t *testing.T) {
	rec := CoordRecord{Txid: "T1", Status: StatusCommitted,
		Files: []proc.FileRef{{FileID: "vol0/a", StorageSite: 1}}}
	good := appendCoordRecord(nil, &rec)

	// Truncations at every length must fail cleanly, never panic.
	for i := 0; i < len(good); i++ {
		if _, err := decodeCoordRecord(good[:i]); err == nil {
			t.Fatalf("decode of %d-byte truncation succeeded", i)
		}
	}
	// Trailing garbage is rejected.
	if _, err := decodeCoordRecord(append(append([]byte(nil), good...), 0xFF)); err == nil {
		t.Fatal("decode with trailing bytes succeeded")
	}
	// Bad version and bad status are rejected.
	bad := append([]byte(nil), good...)
	bad[0] = 99
	if _, err := decodeCoordRecord(bad); err == nil {
		t.Fatal("decode with bad version succeeded")
	}
	bad = append([]byte(nil), good...)
	bad[1] = 7
	if _, err := decodeCoordRecord(bad); err == nil {
		t.Fatal("decode with bad status succeeded")
	}

	prec := PrepareRecord{Txid: "T1", CoordSite: 1,
		Files: []PreparedFile{{FileID: "f", Intentions: shadow.IntentionsList{Ino: 1}}}}
	pgood := appendPrepareRecord(nil, &prec)
	for i := 0; i < len(pgood); i++ {
		if _, err := decodePrepareRecord(pgood[:i]); err == nil {
			t.Fatalf("prepare decode of %d-byte truncation succeeded", i)
		}
	}
}

func BenchmarkEncodePrepareRecord(b *testing.B) {
	rec := PrepareRecord{
		Txid:      "site1-12345",
		CoordSite: 2,
		Files: []PreparedFile{{
			FileID: "vol0/accounts",
			Intentions: shadow.IntentionsList{
				Ino: 5, NewSize: 8192,
				Entries: []shadow.Intention{
					{Logical: 0, Base: 12, Shadow: 40, Ranges: []shadow.Range{{Off: 0, Len: 128}}},
					{Logical: 1, Base: 13, Shadow: 41, Ranges: []shadow.Range{{Off: 256, Len: 64}}},
				},
			},
		}},
		Locks: []LockInfo{{FileID: "vol0/accounts", Mode: lockmgr.ModeExclusive, Off: 0, Len: 128}},
	}
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = appendPrepareRecord(buf[:0], &rec)
	}
}
