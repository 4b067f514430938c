package tpc

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/fs"
	"repro/internal/lockmgr"
	"repro/internal/proc"
	"repro/internal/shadow"
	"repro/internal/simnet"
)

// Hand-rolled binary codec for the two log record types.  The commit
// path encodes a coordinator record and a prepare record per transaction
// (per file in footnote-10 mode), and gob's per-call reflection and type
// streams made encode the hottest allocation site under concurrent load.
// This codec appends into a pooled staging buffer that the log copies
// into its own pages (putRecord), so steady-state encoding allocates
// nothing.
//
// Layout rules:
//   - every record starts with a one-byte format version;
//   - CoordRecord's Status is a fixed byte at offset 1, so flipping the
//     status re-encodes to the identical length and the commit point
//     stays a single in-place log write (section 4.3);
//   - strings carry a uvarint length prefix; integers are zigzag varints.

const (
	coordRecVersion = 1
	prepRecVersion  = 2 // v2 added the one-phase record count
)

var encPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// putRecord encodes a record into a pooled staging buffer and stores it
// under key, forcing the data pages in flush with it (fs.LogStore.Put).
// The buffer goes back to the pool as Put returns: the log keeps no
// reference to a payload.
func putRecord(v *fs.Volume, key string, kind fs.LogKind, encode func([]byte) []byte, flush ...int) error {
	staged := encPool.Get().(*[]byte)
	*staged = encode((*staged)[:0])
	err := v.Log().Put(key, kind, *staged, flush...)
	encPool.Put(staged)
	return err
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// decoder walks an encoded payload.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("tpc: truncated or corrupt %s", what)
	}
}

func (d *decoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail(what)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) int(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// length reads a uvarint count and sanity-bounds it against the bytes
// remaining, so a corrupt record cannot drive a huge allocation.
func (d *decoder) length(what string) int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 || v > uint64(len(d.b)-n) {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *decoder) str(what string) string {
	n := d.length(what)
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) done(what string) error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("tpc: %d trailing bytes after %s", len(d.b), what)
	}
	return nil
}

// appendCoordRecord serializes the coordinator log record onto b.
// Re-encoding with only Status changed yields a payload of identical
// length.
func appendCoordRecord(b []byte, rec *CoordRecord) []byte {
	b = append(b, coordRecVersion, byte(rec.Status))
	b = appendStr(b, rec.Txid)
	b = binary.AppendUvarint(b, uint64(len(rec.Files)))
	for _, f := range rec.Files {
		b = appendStr(b, f.FileID)
		b = appendInt(b, int64(f.StorageSite))
	}
	return b
}

func decodeCoordRecord(payload []byte) (CoordRecord, error) {
	d := decoder{b: payload}
	var rec CoordRecord
	if ver := d.byte("coord version"); d.err == nil && ver != coordRecVersion {
		return rec, fmt.Errorf("tpc: unknown coordinator record version %d", ver)
	}
	st := Status(d.byte("coord status"))
	if d.err == nil && (st < StatusUnknown || st > StatusAborted) {
		return rec, fmt.Errorf("tpc: bad coordinator status %d", st)
	}
	rec.Status = st
	rec.Txid = d.str("coord txid")
	nFiles := d.length("coord file count")
	if d.err == nil && nFiles > 0 {
		rec.Files = make([]proc.FileRef, 0, nFiles)
		for i := 0; i < nFiles && d.err == nil; i++ {
			rec.Files = append(rec.Files, proc.FileRef{
				FileID:      d.str("coord file id"),
				StorageSite: simnet.SiteID(d.int("coord storage site")),
			})
		}
	}
	return rec, d.done("coordinator record")
}

// appendPrepareRecord serializes a participant's prepare log entry onto
// b: the intentions lists and lock lists of section 4.2 step 2.
func appendPrepareRecord(b []byte, rec *PrepareRecord) []byte {
	b = append(b, prepRecVersion)
	b = appendStr(b, rec.Txid)
	b = appendInt(b, int64(rec.CoordSite))
	b = appendInt(b, int64(rec.OnePhaseTotal))
	b = binary.AppendUvarint(b, uint64(len(rec.Files)))
	for _, f := range rec.Files {
		b = appendStr(b, f.FileID)
		b = appendInt(b, int64(f.Intentions.Ino))
		b = appendInt(b, f.Intentions.NewSize)
		b = binary.AppendUvarint(b, uint64(len(f.Intentions.Entries)))
		for _, e := range f.Intentions.Entries {
			b = appendInt(b, int64(e.Logical))
			b = appendInt(b, int64(e.Base))
			b = appendInt(b, int64(e.Shadow))
			b = binary.AppendUvarint(b, uint64(len(e.Ranges)))
			for _, r := range e.Ranges {
				b = appendInt(b, int64(r.Off))
				b = appendInt(b, int64(r.Len))
			}
		}
	}
	b = binary.AppendUvarint(b, uint64(len(rec.Locks)))
	for _, l := range rec.Locks {
		b = appendStr(b, l.FileID)
		b = appendInt(b, int64(l.Mode))
		b = appendInt(b, l.Off)
		b = appendInt(b, l.Len)
	}
	return b
}

func decodePrepareRecord(payload []byte) (PrepareRecord, error) {
	d := decoder{b: payload}
	var rec PrepareRecord
	if ver := d.byte("prepare version"); d.err == nil && ver != prepRecVersion {
		return rec, fmt.Errorf("tpc: unknown prepare record version %d", ver)
	}
	rec.Txid = d.str("prepare txid")
	rec.CoordSite = simnet.SiteID(d.int("prepare coord site"))
	rec.OnePhaseTotal = int(d.int("prepare one-phase total"))
	nFiles := d.length("prepare file count")
	if d.err == nil && nFiles > 0 {
		rec.Files = make([]PreparedFile, 0, nFiles)
	}
	for i := 0; i < nFiles && d.err == nil; i++ {
		var f PreparedFile
		f.FileID = d.str("prepared file id")
		f.Intentions.Ino = int(d.int("intentions ino"))
		f.Intentions.NewSize = d.int("intentions new size")
		nEnt := d.length("intentions entry count")
		if d.err == nil && nEnt > 0 {
			f.Intentions.Entries = make([]shadow.Intention, 0, nEnt)
		}
		for j := 0; j < nEnt && d.err == nil; j++ {
			var e shadow.Intention
			e.Logical = int(d.int("intention logical"))
			e.Base = int(d.int("intention base"))
			e.Shadow = int(d.int("intention shadow"))
			nR := d.length("intention range count")
			if d.err == nil && nR > 0 {
				e.Ranges = make([]shadow.Range, 0, nR)
			}
			for k := 0; k < nR && d.err == nil; k++ {
				e.Ranges = append(e.Ranges, shadow.Range{
					Off: int(d.int("range off")),
					Len: int(d.int("range len")),
				})
			}
			f.Intentions.Entries = append(f.Intentions.Entries, e)
		}
		rec.Files = append(rec.Files, f)
	}
	nLocks := d.length("prepare lock count")
	if d.err == nil && nLocks > 0 {
		rec.Locks = make([]LockInfo, 0, nLocks)
	}
	for i := 0; i < nLocks && d.err == nil; i++ {
		rec.Locks = append(rec.Locks, LockInfo{
			FileID: d.str("lock file id"),
			Mode:   lockmgr.Mode(d.int("lock mode")),
			Off:    d.int("lock off"),
			Len:    d.int("lock len"),
		})
	}
	return rec, d.done("prepare record")
}
