package fs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/simdisk"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// LogKind classifies log records so recovery can dispatch them; the kind
// also selects the I/O accounting class (Figure 5 separates coordinator
// log writes from prepare log writes).
type LogKind int

// Log record kinds.
const (
	// KindCoordinator is a transaction coordinator log record: the
	// transaction ID, the participating files with their storage sites,
	// and the status marker (section 4.2).
	KindCoordinator LogKind = iota + 1
	// KindPrepare is a participant prepare log record: intentions lists
	// and lock lists sufficient to finish the commit after a local
	// failure (section 4.2).
	KindPrepare
)

// String names the kind.
func (k LogKind) String() string {
	switch k {
	case KindCoordinator:
		return "coordinator"
	case KindPrepare:
		return "prepare"
	}
	return fmt.Sprintf("logkind(%d)", int(k))
}

func (k LogKind) ioKind() simdisk.IOKind {
	if k == KindCoordinator {
		return simdisk.IOCoordLog
	}
	return simdisk.IOPrepareLog
}

// Errors returned by the log store.
var (
	ErrLogFull     = errors.New("fs: log area full")
	ErrLogTooBig   = errors.New("fs: log record exceeds log area")
	ErrLogNotFound = errors.New("fs: log record not found")
	ErrLogCorrupt  = errors.New("fs: log record corrupt")
)

const (
	logMagic uint32 = 0x4C524543 // "LREC"
	// logHeaderBytes: magic(4) kind(4) keyLen(4) payLen(4) nCont(4).
	logHeaderBytes = 20
	logCRCBytes    = 4
)

// Record is one stored log record.
type Record struct {
	Key     string
	Kind    LogKind
	Payload []byte
}

// LogStore is the per-volume keyed log area.  A Put with an existing key
// overwrites the record in place, which is how the coordinator's status
// marker flips from "unknown" to "committed" in a single write - the
// transaction commit point (section 4.2).  Records survive crashes:
// every Put is synchronous.
//
// Records larger than one page spill onto continuation pages, each
// charged as a log write; the paper's single-page case therefore costs
// exactly one I/O (or two with Volume.DoubleLogWrite, reproducing
// footnote 9).
//
// With a group-commit daemon attached (StartGroupCommit), concurrent
// Put/Delete callers enqueue their records and block while the daemon
// coalesces everything that arrived during the in-flight flush into one
// vectored disk write, so a whole batch pays the seek+sync cost once.
type LogStore struct {
	v *Volume

	// mu is clock-aware because it is held across forced disk writes:
	// under a virtual clock a contender must park idly or time would
	// freeze while the holder waits out its force.
	mu    vtime.Mutex
	slots map[string][]int // key -> pages (header first)
	free  []int            // free log pages, ascending

	// The operation in flight: its write list, and in bufs[:used] the
	// header and continuation images the list names.  The store owns
	// them: the disk copies what it is given and l.mu is held across the
	// disk call, so the next operation starts by taking them all back
	// (writes[:0], used = 0), and len(bufs) never exceeds the pages of the
	// largest operation (one record, or one group-commit batch).
	writes []simdisk.PageWrite
	bufs   [][]byte
	used   int
	zero   []byte // shared read-only zero page: what a delete writes

	gcMu sync.Mutex
	gc   *groupCommitter
}

// setClock binds the store's lock (and any future daemon) to the clock.
// Called once at volume wiring time, before traffic.
func (l *LogStore) setClock(c vtime.Clock) {
	l.mu.SetClock(c)
}

func newLogStore(v *Volume) *LogStore {
	l := &LogStore{v: v, slots: make(map[string][]int), zero: make([]byte, v.geo.PageSize)}
	for p := v.geo.LogStart; p < v.geo.LogStart+v.geo.LogPages; p++ {
		l.free = append(l.free, p)
	}
	return l
}

// load scans the log area after a crash, rebuilding the key index.  Only
// header pages that pass their checksum are honored; torn or stale pages
// are treated as free.
func (l *LogStore) load() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.slots = make(map[string][]int)
	used := make(map[int]bool)
	for p := l.v.geo.LogStart; p < l.v.geo.LogStart+l.v.geo.LogPages; p++ {
		rec, pages, err := l.readHeader(p)
		if err != nil || rec == nil {
			continue
		}
		l.slots[rec.Key] = pages
		for _, pg := range pages {
			used[pg] = true
		}
	}
	l.free = nil
	for p := l.v.geo.LogStart; p < l.v.geo.LogStart+l.v.geo.LogPages; p++ {
		if !used[p] {
			l.free = append(l.free, p)
		}
	}
	return nil
}

// readHeader parses a candidate header page; returns (nil, nil, nil) for
// free/continuation/invalid pages.
func (l *LogStore) readHeader(page int) (*Record, []int, error) {
	buf, err := l.v.disk.ReadPage(page, simdisk.IOMeta)
	if err != nil {
		return nil, nil, err
	}
	if binary.LittleEndian.Uint32(buf[0:]) != logMagic {
		return nil, nil, nil
	}
	kind := LogKind(binary.LittleEndian.Uint32(buf[4:]))
	keyLen := int(binary.LittleEndian.Uint32(buf[8:]))
	payLen := int(binary.LittleEndian.Uint32(buf[12:]))
	nCont := int(binary.LittleEndian.Uint32(buf[16:]))
	ps := l.v.geo.PageSize
	if keyLen < 0 || payLen < 0 || nCont < 0 || nCont > l.v.geo.LogPages {
		return nil, nil, nil
	}
	fixed := logHeaderBytes + 4*nCont + keyLen + logCRCBytes
	if fixed > ps {
		return nil, nil, nil
	}
	contPages := make([]int, nCont)
	for i := 0; i < nCont; i++ {
		contPages[i] = int(binary.LittleEndian.Uint32(buf[logHeaderBytes+4*i:]))
	}
	keyOff := logHeaderBytes + 4*nCont
	key := string(buf[keyOff : keyOff+keyLen])
	crcOff := keyOff + keyLen
	wantCRC := binary.LittleEndian.Uint32(buf[crcOff:])
	headFirst := crcOff + logCRCBytes
	headRoom := ps - headFirst
	if headRoom < 0 {
		return nil, nil, nil
	}

	// Assemble the payload: tail of header page, then continuation pages.
	payload := make([]byte, 0, payLen)
	take := payLen
	if take > headRoom {
		take = headRoom
	}
	payload = append(payload, buf[headFirst:headFirst+take]...)
	for _, cp := range contPages {
		if len(payload) >= payLen {
			break
		}
		if cp < l.v.geo.LogStart || cp >= l.v.geo.LogStart+l.v.geo.LogPages {
			return nil, nil, nil
		}
		cbuf, err := l.v.disk.ReadPage(cp, simdisk.IOMeta)
		if err != nil {
			return nil, nil, err
		}
		take := payLen - len(payload)
		if take > ps {
			take = ps
		}
		payload = append(payload, cbuf[:take]...)
	}
	if len(payload) != payLen {
		return nil, nil, nil
	}
	if recordCRC(buf[keyOff:crcOff], payload) != wantCRC {
		return nil, nil, nil
	}
	return &Record{Key: key, Kind: kind, Payload: payload}, append([]int{page}, contPages...), nil
}

// recordCRC is the record checksum: IEEE CRC-32 over key then payload.
func recordCRC(key, payload []byte) uint32 {
	return crc32.Update(crc32.Update(0, crc32.IEEETable, key), crc32.IEEETable, payload)
}

// pageBufLocked returns a zeroed page image owned by the store, valid
// until the next operation starts.
func (l *LogStore) pageBufLocked() []byte {
	if l.used == len(l.bufs) {
		l.bufs = append(l.bufs, make([]byte, l.v.geo.PageSize))
	}
	buf := l.bufs[l.used]
	l.used++
	clear(buf)
	return buf
}

// takeFreeLocked removes and returns the n lowest free pages.
func (l *LogStore) takeFreeLocked(dst []int, n int) []int {
	dst = append(dst, l.free[:n]...)
	l.free = l.free[:copy(l.free, l.free[n:])]
	return dst
}

// releaseLocked returns pages to the free list, keeping it ascending.
func (l *LogStore) releaseLocked(pages []int) {
	for _, p := range pages {
		i, _ := slices.BinarySearch(l.free, p)
		l.free = slices.Insert(l.free, i, p)
	}
}

// pagesNeeded computes header + continuation page count for a record.
func (l *LogStore) pagesNeeded(keyLen, payLen int) (int, error) {
	ps := l.v.geo.PageSize
	// Iterate: more continuation pointers shrink header room.
	for nCont := 0; nCont <= l.v.geo.LogPages; nCont++ {
		headRoom := ps - (logHeaderBytes + 4*nCont + keyLen + logCRCBytes)
		if headRoom < 0 {
			return 0, ErrLogTooBig
		}
		rest := payLen - headRoom
		need := 0
		if rest > 0 {
			need = (rest + ps - 1) / ps
		}
		if need <= nCont {
			return 1 + nCont, nil
		}
	}
	return 0, ErrLogTooBig
}

// applyPutLocked computes the slot assignment and page images for storing
// (key, kind, payload), updates the in-memory slot and free maps, and
// appends the page writes - continuation pages first, header last, so a
// torn flush never exposes a partial record - to l.writes.  The caller
// performs the disk I/O; if that I/O fails the disk has crashed, and the
// diverged in-memory maps die with the volume handle at reload.  Caller
// holds l.mu.
func (l *LogStore) applyPutLocked(key string, kind LogKind, payload []byte) (fresh bool, err error) {
	l.v.st.Add(stats.Instructions, costmodel.InstrLogRecord)

	need, err := l.pagesNeeded(len(key), len(payload))
	if err != nil {
		return false, err
	}

	// The header page is the record's atomicity point: an overwrite keeps
	// the key's header page and swaps its contents in a single page write,
	// while continuation pages are always freshly allocated - never the
	// old record's - so a crash anywhere before the header swap leaves the
	// old record fully intact, and a crash after it exposes only the new
	// one.  (Reusing old continuation pages in place would tear a crashed
	// overwrite: old header + new continuation bytes fails the checksum
	// and the record vanishes; moving the header would briefly leave two
	// valid headers for one key on disk.)
	pages := l.slots[key]
	fresh = pages == nil
	if fresh {
		if len(l.free) < need {
			return false, fmt.Errorf("%w: need %d pages, %d free", ErrLogFull, need, len(l.free))
		}
		pages = l.takeFreeLocked(make([]int, 0, need), need)
	} else {
		header, oldCont := pages[0], pages[1:]
		if len(l.free) < need-1 {
			return false, fmt.Errorf("%w: need %d pages, %d free", ErrLogFull, need-1, len(l.free))
		}
		// Allocate the new continuation pages before releasing the old
		// ones, so the new record cannot land on pages the old record
		// still needs if the flush tears before the header swap.
		pages = l.takeFreeLocked(append(make([]int, 0, need), header), need-1)
		l.releaseLocked(oldCont)
	}

	nCont := need - 1
	head := l.pageBufLocked()
	binary.LittleEndian.PutUint32(head[0:], logMagic)
	binary.LittleEndian.PutUint32(head[4:], uint32(kind))
	binary.LittleEndian.PutUint32(head[8:], uint32(len(key)))
	binary.LittleEndian.PutUint32(head[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[16:], uint32(nCont))
	for i := 0; i < nCont; i++ {
		binary.LittleEndian.PutUint32(head[logHeaderBytes+4*i:], uint32(pages[1+i]))
	}
	keyOff := logHeaderBytes + 4*nCont
	copy(head[keyOff:], key)
	crcOff := keyOff + len(key)
	binary.LittleEndian.PutUint32(head[crcOff:], recordCRC(head[keyOff:crcOff], payload))
	headFirst := crcOff + logCRCBytes
	n := copy(head[headFirst:], payload)

	// Continuation pages before the header, so a crash mid-flush leaves
	// either the old header (old record intact) or, for a new key, no
	// valid header at all.
	rest := payload[n:]
	for i := 0; i < nCont; i++ {
		cbuf := l.pageBufLocked()
		rest = rest[copy(cbuf, rest):]
		l.writes = append(l.writes, simdisk.PageWrite{Page: pages[1+i], Data: cbuf, Kind: kind.ioKind()})
	}
	l.writes = append(l.writes, simdisk.PageWrite{Page: pages[0], Data: head, Kind: kind.ioKind()})
	l.slots[key] = pages
	return fresh, nil
}

// chargeFootnote9Locked reproduces the 1985 implementation's extra I/O
// per log append, for the log's own inode.  Only appends that grow the
// log (fresh slots) touch the log inode; the in-place status-marker flip
// stays a single write in both modes.  Caller holds l.mu.
func (l *LogStore) chargeFootnote9Locked(freshPuts int) {
	if !l.v.DoubleLogWrite {
		return
	}
	for i := 0; i < freshPuts; i++ {
		l.v.st.Inc(stats.DiskWrites)
		l.v.st.Inc(stats.InodeWrites)
	}
}

// Put stores (or overwrites) the record under key.  Every page of the
// record is charged to the kind's I/O class.  In-place overwrite of a
// same-size record reuses the same pages, so a status-marker flip is
// exactly one write.  Without a group-commit daemon each page is written
// synchronously (the paper's behaviour); with one, the record rides a
// batched flush that forces the disk once for the whole batch.
func (l *LogStore) Put(key string, kind LogKind, payload []byte) error {
	if gc := l.committer(); gc != nil {
		if err, handled := gc.submit(&logReq{key: key, kind: kind, payload: payload}); handled {
			return err
		}
		// The daemon stopped while we were enqueueing: zero-delay path.
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Fenced under the lock, as flushBatch does: the holder parks across
	// its disk force, so a writer can queue here before a crash and get
	// the lock after the volume was reloaded - and would then write the
	// reloaded log's pages from this store's dead slot map.
	if err := l.v.staleErr(); err != nil {
		return err
	}
	l.writes, l.used = l.writes[:0], 0
	fresh, err := l.applyPutLocked(key, kind, payload)
	if err != nil {
		return err
	}
	if err := l.writeEachLocked(); err != nil {
		return err
	}
	if fresh {
		l.chargeFootnote9Locked(1)
	}
	l.v.tr.Record(trace.LogForce, "", key, int64(len(l.writes)))
	return nil
}

// writeEachLocked forces l.writes one page at a time (the paper's
// behaviour: every log page is its own synchronous write).
func (l *LogStore) writeEachLocked() error {
	for _, w := range l.writes {
		if err := l.v.disk.WritePage(w.Page, w.Data, w.Kind, true); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the record stored under key.  The store lock is held across
// the page reads so a concurrent batched flush cannot tear the record
// under the reader.
func (l *LogStore) Get(key string) (*Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	pages := l.slots[key]
	if pages == nil {
		return nil, fmt.Errorf("%w: %q", ErrLogNotFound, key)
	}
	rec, _, err := l.readHeader(pages[0])
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return nil, fmt.Errorf("%w: %q", ErrLogCorrupt, key)
	}
	return rec, nil
}

// applyDeleteLocked records the header-zeroing write for key (a no-op for
// a missing key) and releases its pages.  Caller holds l.mu.
func (l *LogStore) applyDeleteLocked(key string) {
	pages := l.slots[key]
	if pages == nil {
		return
	}
	l.writes = append(l.writes, simdisk.PageWrite{Page: pages[0], Data: l.zero, Kind: simdisk.IOMeta})
	delete(l.slots, key)
	l.releaseLocked(pages)
}

// Delete removes the record under key, zeroing its header page.
// Coordinator logs are deleted only after all commit or abort processing
// has completed (section 4.4).  Deleting a missing key is a no-op.
// Deletes ride the group-commit daemon when one is attached.
func (l *LogStore) Delete(key string) error {
	if gc := l.committer(); gc != nil {
		if err, handled := gc.submit(&logReq{key: key, del: true}); handled {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.v.staleErr(); err != nil { // under the lock, see Put
		return err
	}
	l.writes, l.used = l.writes[:0], 0
	l.applyDeleteLocked(key)
	return l.writeEachLocked()
}

// flushBatch applies one group-commit batch: every record's pages are
// computed under l.mu and land in a single vectored WritePages call - one
// forced I/O for the whole batch.  Records are processed in arrival
// order, so a later Put or Delete of a key in the same batch supersedes
// an earlier one on disk exactly as it does in the slot map.  A write
// failure (the disk crashed mid-batch) is reported to every record whose
// own preparation succeeded: the batch loses whole records, never partial
// ones, because each record's header page is ordered after its
// continuation pages.
func (l *LogStore) flushBatch(batch []*logReq, clk vtime.Clock) {
	l.mu.Lock()
	if err := l.v.staleErr(); err != nil {
		l.mu.Unlock()
		for _, r := range batch {
			vtime.NotifySend(clk, r.done, err)
		}
		return
	}
	l.writes, l.used = l.writes[:0], 0
	errs := make([]error, len(batch))
	ends := make([]int, len(batch)) // writes index one past each record's last page
	freshPuts := 0
	for i, r := range batch {
		if r.del {
			l.applyDeleteLocked(r.key)
			ends[i] = len(l.writes)
			continue
		}
		fresh, err := l.applyPutLocked(r.key, r.kind, r.payload)
		ends[i] = len(l.writes)
		if err != nil {
			errs[i] = err
			continue
		}
		if fresh {
			freshPuts++
		}
	}
	var werr error
	written := len(l.writes)
	if len(l.writes) > 0 {
		l.observeBatchLocked(batch, clk)
		written, werr = l.v.disk.WritePages(l.writes)
		l.v.st.Inc(stats.GroupCommitBatches)
		l.v.st.Add(stats.GroupCommitRecords, int64(len(batch)))
		l.v.tr.Record(trace.GroupCommitBatch, "", l.v.name, int64(len(batch)))
	}
	if werr == nil {
		l.chargeFootnote9Locked(freshPuts)
	}
	l.mu.Unlock()
	// A torn batch loses a suffix of the page writes.  Each record's
	// header (or zeroing write) is its last page, so a record is durable
	// exactly when all its pages are among the written prefix: report
	// success for those and the write error for the rest.  Reporting the
	// shared error to every caller would tell a caller whose record in
	// fact landed - e.g. the coordinator's commit-point flip - that it
	// failed, and recovery would then contradict the caller's belief.
	for i, r := range batch {
		err := errs[i]
		if err == nil && ends[i] > written {
			err = werr
		}
		vtime.NotifySend(clk, r.done, err)
	}
}

// observeBatchLocked records the batch-size and per-record linger
// histograms for one group-commit flush, measured just before the force
// so the disk's own service time is excluded.  The GroupCommitLinger
// trace event carries the worst linger in the batch; it is emitted only
// for daemon-submitted batches (direct flushBatch callers leave
// enqueued zero), so synchronous-mode traces are unchanged.
func (l *LogStore) observeBatchLocked(batch []*logReq, clk vtime.Clock) {
	reg := l.v.st.Registry()
	reg.Histogram("group_commit_batch_size", telemetry.SizeBuckets()).Observe(int64(len(batch)))
	lingerHist := reg.Histogram("group_commit_linger_ns", telemetry.DurationBuckets())
	now := clk.Now()
	var maxLinger time.Duration
	stamped := false
	for _, r := range batch {
		if r.enqueued.IsZero() {
			continue
		}
		stamped = true
		lg := now.Sub(r.enqueued)
		if lg < 0 {
			lg = 0
		}
		lingerHist.Observe(lg.Nanoseconds())
		if lg > maxLinger {
			maxLinger = lg
		}
	}
	if stamped {
		l.v.tr.Record(trace.GroupCommitLinger, "", l.v.name, maxLinger.Nanoseconds())
	}
}

// Records returns every stored record, sorted by key.  Recovery iterates
// this after Load.
func (l *LogStore) Records() ([]*Record, error) {
	l.mu.Lock()
	keys := make([]string, 0, len(l.slots))
	for k := range l.slots {
		keys = append(keys, k)
	}
	l.mu.Unlock()
	sort.Strings(keys)
	out := make([]*Record, 0, len(keys))
	for _, k := range keys {
		rec, err := l.Get(k)
		if err != nil {
			if errors.Is(err, ErrLogNotFound) {
				continue
			}
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// Keys returns the stored keys, sorted.
func (l *LogStore) Keys() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.slots))
	for k := range l.slots {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
