package names

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// raceBuild is set in race-detector builds (race_test.go).
var raceBuild bool

// txid is a transaction-id-shaped name: "00000042.3".
func txid(n, site int) string { return fmt.Sprintf("%08d.%d", n, site) }

// TestCutNamesNeverChange hands out more than a chunk of names, then
// cuts 10^5 more (many chunks' worth), and checks that every name from
// before the rollover still reads as it did.
func TestCutNamesNeverChange(t *testing.T) {
	var b Buffer
	var kept []string
	for i := 0; i < 2*chunkSize/len("txn:00000000.0"); i++ {
		kept = append(kept, b.Cut("txn:", txid(i, i%4)))
	}
	for i := 0; i < 100_000; i++ {
		if got, want := b.Cut("prep:", txid(i, 1), ":", "v1/f"), "prep:"+txid(i, 1)+":v1/f"; got != want {
			t.Fatalf("cut %d = %q, want %q", i, got, want)
		}
	}
	for i, name := range kept {
		if want := "txn:" + txid(i, i%4); name != want {
			t.Fatalf("name %d reads %q after later cuts, want %q", i, name, want)
		}
	}
}

// TestCutLongerThanChunk cuts a name that does not fit any chunk: it
// gets a chunk of its own, and the names around it are unaffected.
func TestCutLongerThanChunk(t *testing.T) {
	var b Buffer
	before := b.Cut("coord:", txid(1, 1))
	long := strings.Repeat("x", 3*chunkSize+7)
	got := b.Cut("prep:", long)
	after := b.Cut("coord:", txid(2, 1))
	if got != "prep:"+long {
		t.Fatalf("long cut has %d bytes, want %d", len(got), len("prep:"+long))
	}
	if before != "coord:"+txid(1, 1) || after != "coord:"+txid(2, 1) {
		t.Fatalf("neighbours of a long cut read %q and %q", before, after)
	}
	if b.Cut() != "" {
		t.Fatal("an empty cut is not empty")
	}
}

// TestCutAllocatesOncePerChunk: in steady state a buffer allocates one
// chunk per 4 KiB of names and nothing per name.
func TestCutAllocatesOncePerChunk(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	var b Buffer
	suffix := strings.Repeat("0", 32-len("txn:"))
	fill := func() { // exactly one chunk of 32-byte names
		for i := 0; i < chunkSize/32; i++ {
			b.Cut("txn:", suffix)
		}
	}
	fill()
	if got := testing.AllocsPerRun(100, fill); got > 1 {
		t.Errorf("4 KiB of names cost %.2f allocations, want at most 1", got)
	}
}

// TestCutConcurrently has eight goroutines cut names at once; each must
// get back its own name, intact at the time and after every other cut.
func TestCutConcurrently(t *testing.T) {
	const goroutines, cuts = 8, 5000
	var b Buffer
	got := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cuts; i++ {
				name := b.Cut("txn:", txid(i, g))
				if want := "txn:" + txid(i, g); name != want {
					t.Errorf("goroutine %d cut %d got %q, want %q", g, i, name, want)
					return
				}
				got[g] = append(got[g], name)
			}
		}()
	}
	wg.Wait()
	for g, list := range got {
		for i, name := range list {
			if want := "txn:" + txid(i, g); name != want {
				t.Fatalf("goroutine %d name %d reads %q after the others' cuts, want %q", g, i, name, want)
			}
		}
	}
}
