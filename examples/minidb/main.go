// Minidb: the paper's section 2 motivation made concrete.  A tiny
// database subsystem brackets every operation in its own
// BeginTrans/EndTrans pair so it is atomic when called standalone - and
// because the pairs nest by counting, the same code composes unchanged
// into a caller's larger transaction: the inner EndTrans just decrements
// the nesting level, and the caller's outcome (commit OR abort) governs
// everything the subsystem did.
//
//	go run ./examples/minidb
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
)

// ---- the "database subsystem" ----

const (
	keyBytes  = 8
	valBytes  = 56
	rowBytes  = keyBytes + valBytes
	tableRows = 64
)

// DB is a fixed-slot record store over one Locus file: a key lives in its
// home slot or, probing forward, the first free one after it.  Every
// method is internally transactional; record locks give fine-grain
// concurrency, so two clients updating different rows - even rows on the
// same data page - proceed in parallel.
type DB struct {
	p *core.Process
	f *core.File
}

// OpenDB creates or opens the table for this process.
func OpenDB(p *core.Process, path string) (*DB, error) {
	f, err := p.Open(path)
	if err != nil {
		f, err = p.Create(path)
		if err != nil {
			return nil, err
		}
		// Preallocate the slot array (a non-transaction setup write).
		zero := make([]byte, tableRows*rowBytes)
		if _, err := f.WriteAt(zero, 0); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
	}
	return &DB{p: p, f: f}, nil
}

func slotOff(slot int) int64 { return int64(slot * rowBytes) }

// Put inserts or updates key -> val.  Standalone it commits atomically;
// inside a caller's transaction it merely joins it.
func (db *DB) Put(key uint64, val string) error {
	if _, err := db.p.BeginTrans(); err != nil {
		return err
	}
	slot, _, err := db.findSlot(key, core.Exclusive)
	if err != nil {
		db.p.AbortTrans() //nolint:errcheck
		return err
	}
	if slot < 0 {
		db.p.AbortTrans() //nolint:errcheck
		return fmt.Errorf("minidb: table full")
	}
	row := make([]byte, rowBytes)
	binary.BigEndian.PutUint64(row, key)
	copy(row[keyBytes:], val)
	if _, err := db.f.WriteAt(row, slotOff(slot)); err != nil {
		db.p.AbortTrans() //nolint:errcheck
		return err
	}
	return db.p.EndTrans()
}

// Get returns the value for key, read under a shared record lock.
func (db *DB) Get(key uint64) (string, bool, error) {
	if _, err := db.p.BeginTrans(); err != nil {
		return "", false, err
	}
	slot, found, err := db.findSlot(key, core.Shared)
	if err != nil || !found {
		endErr := db.p.EndTrans()
		if err == nil {
			err = endErr
		}
		return "", false, err
	}
	row := make([]byte, rowBytes)
	if _, err := db.f.ReadAt(row, slotOff(slot)); err != nil {
		db.p.AbortTrans() //nolint:errcheck
		return "", false, err
	}
	if err := db.p.EndTrans(); err != nil {
		return "", false, err
	}
	val := row[keyBytes:]
	end := len(val)
	for end > 0 && val[end-1] == 0 {
		end--
	}
	return string(val[:end]), true, nil
}

// findSlot probes from key's home slot for key, or for the first empty
// slot (rows are never deleted, so an empty slot ends the probe); -1 means
// the table is full.  Each slot is locked in mode before it is read: two
// writers that both read an empty slot under shared locks would each wait
// forever to upgrade it under the other's.
func (db *DB) findSlot(key uint64, mode core.Mode) (slot int, found bool, err error) {
	row := make([]byte, rowBytes)
	for i := 0; i < tableRows; i++ {
		s := int((key + uint64(i)) % tableRows)
		if err := db.f.LockRange(slotOff(s), rowBytes, mode); err != nil {
			return -1, false, err
		}
		if _, err := db.f.ReadAt(row, slotOff(s)); err != nil {
			return -1, false, err
		}
		switch binary.BigEndian.Uint64(row) {
		case key:
			return s, true, nil
		case 0:
			return s, false, nil
		}
	}
	return -1, false, nil
}

// ---- the application composing the subsystem ----

func main() {
	sys := core.NewSystem(cluster.Config{SyncPhase2: true})
	sys.AddSite(1)
	sys.AddSite(2)
	must(sys.AddVolume(1, "db"))
	must(sys.AddVolume(2, "scratch"))

	// Standalone subsystem calls: each Put is its own transaction.
	writer, err := sys.NewProcess(2)
	must(err)
	db, err := OpenDB(writer, "db/users")
	must(err)
	must(db.Put(1001, "ada"))
	must(db.Put(1002, "grace"))
	v, ok, err := db.Get(1001)
	must(err)
	fmt.Printf("standalone: users[1001] = %q (found=%v)\n", v, ok)

	// Composition: an application transaction wraps TWO subsystem calls
	// plus its own file update.  The subsystem's internal EndTrans must
	// not commit early, and the caller's abort must undo everything.
	audit, err := writer.Create("db/audit")
	must(err)

	_, err = writer.BeginTrans()
	must(err)
	must(db.Put(1001, "ada-RENAMED"))
	must(db.Put(1003, "hopper"))
	_, err = audit.WriteAt([]byte("renamed 1001; added 1003"), 0)
	must(err)
	if v, _, _ := db.Get(1001); v != "ada-RENAMED" {
		log.Fatalf("transaction does not see its own subsystem writes: %q", v)
	}
	must(writer.AbortTrans())
	fmt.Println("caller aborted: subsystem updates inside the transaction must vanish")

	v, ok, err = db.Get(1001)
	must(err)
	fmt.Printf("after abort: users[1001] = %q (found=%v)\n", v, ok)
	if v != "ada" {
		log.Fatal("composition broken: inner EndTrans committed early!")
	}
	if _, found, _ := db.Get(1003); found {
		log.Fatal("aborted insert survived")
	}

	// The same composition, committed this time.
	_, err = writer.BeginTrans()
	must(err)
	must(db.Put(1001, "ada-RENAMED"))
	must(db.Put(1003, "hopper"))
	_, err = audit.WriteAt([]byte("renamed 1001; added 1003"), 0)
	must(err)
	must(writer.EndTrans())

	v, _, _ = db.Get(1001)
	w, _, _ := db.Get(1003)
	fmt.Printf("after commit: users[1001] = %q, users[1003] = %q\n", v, w)

	// Fine-grain concurrency: two other clients update different rows
	// concurrently; record locking lets both proceed.
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			p, err := sys.NewProcess(1)
			if err != nil {
				done <- err
				return
			}
			cdb, err := OpenDB(p, "db/users")
			if err != nil {
				done <- err
				return
			}
			done <- cdb.Put(uint64(2000+i), fmt.Sprintf("client-%d", i))
		}(i)
	}
	for i := 0; i < 2; i++ {
		must(<-done)
	}
	a, _, _ := db.Get(2000)
	b, _, _ := db.Get(2001)
	fmt.Printf("concurrent clients: %q, %q\n", a, b)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
