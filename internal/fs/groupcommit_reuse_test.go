package fs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// raceBuild is set in race-detector builds (race_test.go).
var raceBuild bool

// TestGroupCommitOutcomesAcrossReplacement: the daemon reuses each request
// and its channel once the submitter has its outcome, so under concurrent
// Put/Delete traffic on the real clock - while StartGroupCommit keeps
// replacing the daemon, the old one still notifying its last batch as the
// new one flushes - every caller must get its own record's outcome: an
// oversized record's caller ErrLogTooBig, everyone else nil and their own
// bytes back.
func TestGroupCommitOutcomesAcrossReplacement(t *testing.T) {
	v := logVolume(t, 1024, 64)
	l := v.Log()
	cfg := GroupCommitConfig{MaxBatch: 4, MaxDelay: 50 * time.Microsecond}
	l.StartGroupCommit(cfg)
	defer l.StopGroupCommit()
	tooBig := make([]byte, 70*1024) // more than the whole log area

	const workers, rounds = 8, 40
	stop := make(chan struct{})
	replaced := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				replaced <- n
				return
			default:
			}
			l.StartGroupCommit(cfg)
			n++
			time.Sleep(100 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("w%d", w)
			for i := 0; i < rounds; i++ {
				payload := []byte(fmt.Sprintf("w%d-round%d", w, i))
				if err := l.Put(key, KindPrepare, payload); err != nil {
					t.Errorf("%s round %d: Put = %v, want nil", key, i, err)
					return
				}
				if err := l.Put(key+"-big", KindPrepare, tooBig); !errors.Is(err, ErrLogTooBig) {
					t.Errorf("%s round %d: oversized Put = %v, want ErrLogTooBig", key, i, err)
					return
				}
				rec, err := l.Get(key)
				if err != nil || !bytes.Equal(rec.Payload, payload) {
					t.Errorf("%s round %d: Get = %v, %v; want %q", key, i, rec, err, payload)
					return
				}
				if i%3 == 2 {
					if err := l.Delete(key); err != nil {
						t.Errorf("%s round %d: Delete = %v, want nil", key, i, err)
						return
					}
					if _, err := l.Get(key); !errors.Is(err, ErrLogNotFound) {
						t.Errorf("%s round %d: Get after Delete = %v, want ErrLogNotFound", key, i, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if n := <-replaced; n < 2 {
		t.Logf("the daemon was replaced only %d times during the run", n)
	}
}

// TestGroupCommitPutAllocatesNothing: in the steady state a Put through
// the daemon, on the virtual clock the ledger runs, allocates nothing -
// not its request, not its channel, not the daemon's batch or outcome
// arrays.
func TestGroupCommitPutAllocatesNothing(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	clk, v := virtualLogVolume(t, 16)
	l := v.Log()
	l.StartGroupCommit(GroupCommitConfig{MaxDelay: 26 * time.Millisecond, Clock: clk})
	defer l.StopGroupCommit()
	payload := make([]byte, 64)
	put := func() {
		payload[0]++
		if err := l.Put("k", KindPrepare, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // grow the daemon's arrays and free list
		put()
	}
	if n := testing.AllocsPerRun(100, put); n != 0 {
		t.Fatalf("a group-commit Put allocates %.1f times, want 0", n)
	}
}
