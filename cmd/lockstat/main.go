// Command lockstat demonstrates the record locking machinery: it prints
// the Figure 1 compatibility matrix, builds a live multi-transaction lock
// list and renders it (the Figure 3 structure), and stages a distributed
// deadlock to show the wait-for graph that the user-level detector of
// section 3.1 consumes.
package main

import (
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/wfg"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lockstat:", err)
		os.Exit(1)
	}
}

func run() error {
	sys, err := scenario.Spec{Volumes: []string{"va", "vb"}}.Build()
	if err != nil {
		return err
	}

	fmt.Println("== Figure 1: lock compatibility (see also locusbench -exp fig1) ==")
	fmt.Println()
	fmt.Println("              Unix    Shared  Exclusive")
	fmt.Println("  Unix        r/w     read    no")
	fmt.Println("  Shared      read    read    no")
	fmt.Println("  Exclusive   no      no      no")
	fmt.Println()

	// Build a live lock list: two transactions and a non-transaction
	// process on one file.
	pa, err := sys.NewProcess(1)
	if err != nil {
		return err
	}
	fa, err := pa.Create("va/records")
	if err != nil {
		return err
	}
	if _, err := pa.BeginTrans(); err != nil {
		return err
	}
	if err := fa.LockRange(0, 100, core.Exclusive); err != nil {
		return err
	}
	if _, err := fa.WriteAt([]byte("txn A's record"), 0); err != nil {
		return err
	}
	// Unlock: retained under rule 1.
	if _, err := fa.Unlock(0, 100); err != nil {
		return err
	}

	pb, err := sys.NewProcess(2)
	if err != nil {
		return err
	}
	fb, err := pb.Open("va/records")
	if err != nil {
		return err
	}
	if _, err := pb.BeginTrans(); err != nil {
		return err
	}
	if err := fb.LockRange(200, 50, core.Shared); err != nil {
		return err
	}

	pc, err := sys.NewProcess(1)
	if err != nil {
		return err
	}
	fc, err := pc.Open("va/records")
	if err != nil {
		return err
	}
	if err := fc.LockRange(400, 25, core.Exclusive); err != nil {
		return err
	}

	fmt.Println("== Figure 3: the storage site's lock list for va/records ==")
	fmt.Println()
	fl := sys.Cluster().Site(1).Locks().Lookup("va/records")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  holder\tmode\trange\tretained\tnon-txn")
	for _, e := range fl.Entries() {
		fmt.Fprintf(w, "  pid %d %s\t%s\t[%d,%d)\t%v\t%v\n",
			e.Holder.PID, e.Holder.Group(), e.Mode, e.Off, e.Off+e.Len, e.Retained, e.NonTxn)
	}
	w.Flush()
	fmt.Println()

	// Stage a deadlock: A holds r1 and wants r2; B holds r2 and wants r1.
	fmt.Println("== Section 3.1: wait-for graph and victim selection ==")
	fmt.Println()
	if err := fb.LockRange(300, 10, core.Exclusive); err != nil {
		return err
	}
	errA := make(chan error, 1)
	errB := make(chan error, 1)
	go func() { errA <- fa.LockRange(300, 10, core.Exclusive) }() // A waits on B
	go func() { errB <- fb.LockRange(400, 5, core.Exclusive) }()  // B waits on C? no - C holds 400
	// Give the waits a moment to queue.
	time.Sleep(50 * time.Millisecond)

	edges := sys.Cluster().WaitEdges()
	for _, e := range edges {
		fmt.Printf("  %s waits-for %s on %s\n", e.Waiter, e.Holder, e.FileID)
	}
	g := wfg.Build(edges)
	fmt.Printf("  deadlocked: %v\n", g.Deadlocked())
	fmt.Println()
	printQueues(sys)

	// Turn it into a true cycle: C (non-transaction) releases; B then
	// waits on A's retained range.
	if _, err := fc.Unlock(400, 25); err != nil {
		return err
	}
	if err := <-errB; err != nil {
		return fmt.Errorf("B's second lock: %w", err)
	}
	go func() { errB <- fb.LockRange(0, 10, core.Exclusive) }() // B waits on A: cycle
	time.Sleep(50 * time.Millisecond)

	edges = sys.Cluster().WaitEdges()
	fmt.Println()
	for _, e := range edges {
		fmt.Printf("  %s waits-for %s on %s\n", e.Waiter, e.Holder, e.FileID)
	}
	victims := sys.DetectDeadlocksOnce()
	fmt.Printf("  detector victims (youngest txn policy): %v\n", victims)

	// The survivor's wait completes; the victim's request is cancelled.
	if err := <-errA; err != nil {
		return fmt.Errorf("survivor's lock: %w", err)
	}
	if err := <-errB; err != nil {
		fmt.Printf("  victim's queued request failed as expected: %v\n", err)
	}
	if err := pa.EndTrans(); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("survivor committed; deadlock resolved.")
	return nil
}

// printQueues renders every non-empty wait queue in the cluster: how many
// requests are parked on each file and how long the oldest has waited.
func printQueues(sys *core.System) {
	fmt.Println("== Wait queues (depth and longest waiter age) ==")
	fmt.Println()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  site\tfile\tdepth\toldest wait")
	any := false
	for _, id := range sys.Cluster().Sites() {
		for _, qi := range sys.Cluster().Site(id).Locks().QueueStats() {
			any = true
			fmt.Fprintf(w, "  %s\t%s\t%d\t%s\n",
				id, qi.FileID, qi.Depth, qi.OldestWait.Round(time.Millisecond))
		}
	}
	w.Flush()
	if !any {
		fmt.Println("  (no waiters)")
	}
	// The merged summary spans every shard of a site's lock manager: the
	// oldest waiter it names is the cluster-operator answer to "who has
	// been stuck longest here", not the oldest within one shard.
	for _, id := range sys.Cluster().Sites() {
		qs := sys.Cluster().Site(id).Locks().QueueSummary()
		if qs.Depth == 0 {
			continue
		}
		fmt.Printf("  site %s summary: %d waiters on %d files; oldest %s on %s\n",
			id, qs.Depth, qs.Files, qs.OldestWait.Round(time.Millisecond), qs.OldestFile)
	}
	fmt.Println()
}
