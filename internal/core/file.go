package core

import (
	"fmt"
	"io"

	"repro/internal/proc"
	"repro/internal/telemetry"
)

// File is an open file channel of one process.  Its read/write methods
// maintain a current file pointer, and Lock follows the paper's
// interface: position the pointer, then Lock(length, mode) (section 3.2).
// A File is not safe for concurrent use; open the file separately in each
// process that uses it.
type File struct {
	p      *Process
	id     string
	pos    int64
	append bool
	closed bool
}

// LockOpts modifies a locking request.
type LockOpts struct {
	// NoWait fails with ErrConflict instead of queueing.
	NoWait bool
	// NonTxn requests a non-transaction lock (section 3.4): Figure 1
	// compatibility applies, two-phase retention does not.
	NonTxn bool
}

// Open opens the file at path ("volume/name") through the transparent
// namespace; the storage site may be anywhere.  Opening performs the
// name-mapping once; subsequent lock and data operations skip it.
func (p *Process) Open(path string) (*File, error) {
	id, _, err := p.kernel().Open(path)
	if err != nil {
		return nil, err
	}
	return &File{p: p, id: id}, nil
}

// Create makes an empty file and opens it.
func (p *Process) Create(path string) (*File, error) {
	if err := p.kernel().Create(path); err != nil {
		return nil, err
	}
	return p.Open(path)
}

// Remove deletes a file through the transparent namespace.  The file must
// not be open anywhere.
func (p *Process) Remove(path string) error {
	return p.kernel().Remove(path)
}

// ID returns the file's global identifier.
func (f *File) ID() string { return f.id }

// Close releases the channel.  For a non-transaction process, close
// commits its modifications atomically (the base Locus single-file
// commit); a transaction's modifications await the transaction outcome.
func (f *File) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	return f.p.kernel().Close(f.id, f.p.pid, f.p.Txn())
}

// Size returns the file's working size (committed size plus uncommitted
// extensions visible through the commit mechanism).
func (f *File) Size() (int64, error) {
	size, _, err := f.p.kernel().Stat(f.id)
	return size, err
}

// CommittedSize returns the last committed size.
func (f *File) CommittedSize() (int64, error) {
	_, cs, err := f.p.kernel().Stat(f.id)
	return cs, err
}

// Seek sets the file pointer, like io.Seeker (whence 2 seeks relative to
// the working end of file).
func (f *File) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		f.pos = offset
	case io.SeekCurrent:
		f.pos += offset
	case io.SeekEnd:
		size, err := f.Size()
		if err != nil {
			return f.pos, err
		}
		f.pos = size + offset
	default:
		return f.pos, fmt.Errorf("core: bad whence %d", whence)
	}
	if f.pos < 0 {
		f.pos = 0
	}
	return f.pos, nil
}

// SetAppendMode switches the file to append mode: subsequent Lock calls
// are interpreted relative to the end of file and resolved atomically at
// the storage site, so concurrent appenders of a shared log cannot
// livelock (section 3.2).
func (f *File) SetAppendMode(on bool) { f.append = on }

// registerUse adds the file to the process's transaction file-list.
// Per section 2, only resources locked within the BeginTrans-EndTrans
// pair become part of the transaction, so this runs on the locking paths.
func (f *File) registerUse() error {
	ps, err := f.p.state()
	if err != nil {
		return err
	}
	if ps.TxnID == "" {
		return nil
	}
	site, err := f.p.sys.cl.StorageSite(f.id)
	if err != nil {
		return err
	}
	if err := f.p.kernel().Procs().AddFile(f.p.pid, proc.FileRef{FileID: f.id, StorageSite: site}); err != nil {
		return err
	}
	f.p.sys.noteTxnSite(ps.TxnID, site)
	return nil
}

// Lock locks length bytes at the current file pointer (or at end of file
// in append mode), in the given mode - the paper's Lock(file,length,mode)
// call.  It returns the locked offset, which in append mode is where the
// caller should write.  By default a conflicting request queues until
// grantable; LockOpts{NoWait: true} fails fast with ErrConflict.
func (f *File) Lock(length int64, mode Mode, opts ...LockOpts) (int64, error) {
	var o LockOpts
	if len(opts) > 0 {
		o = opts[0]
	}
	if mode == Unlock {
		// The third mode of the paper's Lock call: an unlock request for
		// the range at the current file pointer.
		_, err := f.Unlock(f.pos, length)
		return f.pos, err
	}
	ps, err := f.p.state()
	if err != nil {
		return 0, err
	}
	if err := f.p.checkLive(ps.TxnID); err != nil {
		return 0, err
	}
	opDone := f.opWindow(ps.TxnID)
	res, err := f.p.kernel().Lock(f.id, f.p.pid, ps.TxnID, mode, f.pos, length, f.append, o.NonTxn, !o.NoWait)
	opDone()
	if err != nil {
		return 0, err
	}
	if !o.NonTxn {
		if err := f.registerUse(); err != nil {
			return 0, err
		}
	}
	return res.Off, nil
}

// opWindow opens a WinOp profiler span covering one file operation of
// the process's transaction; invoke the returned func when the op
// completes.  The span catches time the op spent blocked on site-side
// serialization (a committing transaction's flush holding the file's
// shadow structures) that no leaf resource charges; lock-queue waits
// inside it are charged separately by the lock manager and subtracted
// when the report derives store_queue.  Free when profiling is off.
func (f *File) opWindow(txid string) func() {
	if txid == "" {
		return func() {}
	}
	prof := f.p.sys.prof()
	if prof == nil {
		return func() {}
	}
	clk := f.p.sys.cl.Clock()
	t0 := clk.Now()
	return func() { prof.Window(txid, telemetry.WinOp, clk.Now().Sub(t0)) }
}

// LockRange locks an explicit byte range without moving the file pointer.
func (f *File) LockRange(off, length int64, mode Mode, opts ...LockOpts) error {
	saved := f.pos
	f.pos = off
	app := f.append
	f.append = false
	_, err := f.Lock(length, mode, opts...)
	f.pos = saved
	f.append = app
	return err
}

// Unlock releases [off, off+length).  Within a transaction the lock is
// retained (rule 1 of section 3.3): other transactions stay excluded
// until commit or abort, and any member process may reacquire it.  The
// return value reports whether the lock was retained.
func (f *File) Unlock(off, length int64) (retained bool, err error) {
	return f.p.kernel().Unlock(f.id, f.p.pid, f.p.Txn(), off, length)
}

// ReadAt reads len(buf) bytes at off, implicitly acquiring a shared
// record lock when the process executes within a transaction.
func (f *File) ReadAt(buf []byte, off int64) (int, error) {
	ps, err := f.p.state()
	if err != nil {
		return 0, err
	}
	if err := f.p.checkLive(ps.TxnID); err != nil {
		return 0, err
	}
	opDone := f.opWindow(ps.TxnID)
	data, err := f.p.kernel().Read(f.id, f.p.pid, ps.TxnID, off, len(buf))
	opDone()
	if err != nil {
		return 0, err
	}
	if ps.TxnID != "" {
		if err := f.registerUse(); err != nil {
			return 0, err
		}
	}
	copy(buf, data)
	return len(data), nil
}

// WriteAt writes buf at off, implicitly acquiring an exclusive record
// lock when the process executes within a transaction.
func (f *File) WriteAt(buf []byte, off int64) (int, error) {
	ps, err := f.p.state()
	if err != nil {
		return 0, err
	}
	if err := f.p.checkLive(ps.TxnID); err != nil {
		return 0, err
	}
	opDone := f.opWindow(ps.TxnID)
	n, err := f.p.kernel().Write(f.id, f.p.pid, ps.TxnID, off, buf)
	opDone()
	if err != nil {
		return 0, err
	}
	if ps.TxnID != "" {
		if err := f.registerUse(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Read reads from the current position, advancing it.  It returns io.EOF
// at end of file.
func (f *File) Read(buf []byte) (int, error) {
	n, err := f.ReadAt(buf, f.pos)
	f.pos += int64(n)
	if err == nil && n == 0 && len(buf) > 0 {
		return 0, io.EOF
	}
	return n, err
}

// Write writes at the current position, advancing it.
func (f *File) Write(buf []byte) (int, error) {
	n, err := f.WriteAt(buf, f.pos)
	f.pos += int64(n)
	return n, err
}

// Sync commits a non-transaction process's modifications to this file
// immediately (single-file atomic commit).  Inside a transaction it
// fails: the data commits with the transaction.
func (f *File) Sync() error {
	return f.p.kernel().Sync(f.id, f.p.pid, f.p.Txn())
}
