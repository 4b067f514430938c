package fs

import (
	"bytes"
	"fmt"
	"testing"
)

// TestLogSlotCycleAllocatesNothing: a one-page record's page list is the
// store's own for its header page, so its Put, its in-place overwrite (the
// coordinator's status flip, which keeps the slot) and its Delete allocate
// nothing once warm.
func TestLogSlotCycleAllocatesNothing(t *testing.T) {
	v := logVolume(t, 512, 8)
	l := v.Log()
	unknown, committed := bytes.Repeat([]byte{'U'}, 64), bytes.Repeat([]byte{'C'}, 64)
	cycle := func() {
		if err := l.Put("coord:T", KindCoordinator, unknown); err != nil {
			t.Fatal(err)
		}
		slot := &l.slots["coord:T"][0]
		if err := l.Put("coord:T", KindCoordinator, committed); err != nil {
			t.Fatal(err)
		}
		if &l.slots["coord:T"][0] != slot {
			t.Fatal("the one-page flip replaced its slot")
		}
		if err := l.Delete("coord:T"); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("one-page Put, flip and Delete: %v allocations per cycle, want 0", got)
	}
}

// TestLogSlotsKeepPagesApart: records move between one-page slots (the
// store's own page lists) and multi-page ones as they are written, grown,
// shrunk and deleted, and through all of it every log page is in exactly
// one place, free or one record's, and every record reads back.
func TestLogSlotsKeepPagesApart(t *testing.T) {
	const logPages = 12
	v := logVolume(t, 512, logPages)
	l := v.Log()
	pay := func(c byte, n int) []byte { return bytes.Repeat([]byte{c}, n) }
	steps := []struct {
		key string
		n   int // payload bytes; 0 deletes
	}{
		{"a", 1200}, {"b", 40}, {"a", 0},
		{"c", 40},   // a one-page slot on a's freed header page
		{"c", 1200}, // grows to three pages
		{"b", 1200}, // so does b
		{"b", 900},  // shrinks to two
		{"c", 40},   // back to its one-page slot
		{"d", 40}, {"b", 0}, {"e", 1200},
	}
	want := map[string][]byte{}
	for i, s := range steps {
		var err error
		if s.n == 0 {
			err = l.Delete(s.key)
			delete(want, s.key)
		} else {
			want[s.key] = pay(byte('A'+i), s.n)
			err = l.Put(s.key, KindPrepare, want[s.key])
		}
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, s.key, err)
		}
		owner := map[int]string{}
		for _, p := range l.free {
			owner[p] = "free"
		}
		for key, pages := range l.slots {
			for _, p := range pages {
				if o, dup := owner[p]; dup {
					t.Fatalf("step %d: page %d belongs to %s and %s", i, p, o, key)
				}
				owner[p] = key
			}
		}
		if len(owner) != logPages {
			t.Fatalf("step %d: %d log pages accounted for, want %d", i, len(owner), logPages)
		}
		for key, p := range want {
			rec, err := l.Get(key)
			if err != nil || !bytes.Equal(rec.Payload, p) {
				t.Fatalf("step %d: record %s unreadable (%v)", i, key, err)
			}
		}
	}
}

// TestLogKeptSlotOverwriteCrash: overwrites into and out of a one-page
// slot, torn at every write, still leave the old record or the new one
// after a reload, never a torn mix or nothing.
func TestLogKeptSlotOverwriteCrash(t *testing.T) {
	for _, sizes := range [][2]int{{64, 64}, {64, 2500}, {2500, 64}} {
		oldPay, newPay := bytes.Repeat([]byte{'O'}, sizes[0]), bytes.Repeat([]byte{'N'}, sizes[1])
		t.Run(fmt.Sprintf("%d->%d", sizes[0], sizes[1]), func(t *testing.T) {
			for i := 0; ; i++ {
				v := logVolume(t, 1024, 8)
				d := v.Disk()
				if err := v.Log().Put("rec", KindCoordinator, oldPay); err != nil {
					t.Fatal(err)
				}
				d.CrashAfterWrites(i)
				putErr := v.Log().Put("rec", KindCoordinator, newPay)
				fired := d.Crashed()
				if !fired {
					d.CrashAfterWrites(-1)
					if putErr != nil {
						t.Fatalf("point %d: clean overwrite failed: %v", i, putErr)
					}
				}
				v.Invalidate()
				d.Restart()
				v2, err := Load("vol0", d)
				if err != nil {
					t.Fatalf("point %d: reload: %v", i, err)
				}
				rec, err := v2.Log().Get("rec")
				if err != nil {
					t.Fatalf("point %d: record vanished after a torn overwrite: %v", i, err)
				}
				if !bytes.Equal(rec.Payload, newPay) && (!fired || !bytes.Equal(rec.Payload, oldPay)) {
					t.Fatalf("point %d: recovered a %d-byte record that is neither old nor new", i, len(rec.Payload))
				}
				if !fired {
					return
				}
			}
		})
	}
}
