package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/vtime"
	"repro/internal/wfg"
)

// lockstatCmd demonstrates the record locking machinery: it prints the
// Figure 1 compatibility matrix as bench -exp fig1 probes it, builds a
// live multi-transaction lock list and renders it (the Figure 3
// structure), and stages a distributed deadlock to show the wait-for
// graph that the user-level detector of section 3.1 consumes.
func lockstatCmd(*flag.FlagSet) func() error { return lockstat }

func lockstat() error {
	if err := fig1.show(false); err != nil {
		return err
	}
	fmt.Println()
	_, err := scenario.Run(scenario.Scenario{
		Spec:    scenario.Spec{Volumes: []string{"va", "vb"}},
		Clients: []func(*scenario.Env){demo},
	})
	return err
}

// demo is the whole demonstration; a step that fails aborts it.
func demo(e *scenario.Env) {
	sys := e.Sys

	// Build a live lock list: two transactions and a non-transaction
	// process on one file.
	pa := scenario.Must(sys.NewProcess(1))
	fa := scenario.Must(pa.Create("va/records"))
	scenario.Must(pa.BeginTrans())
	scenario.Ok(fa.LockRange(0, 100, core.Exclusive))
	scenario.Must(fa.WriteAt([]byte("txn A's record"), 0))
	scenario.Must(fa.Unlock(0, 100)) // retained under rule 1

	pb, fbs, err := e.Open(2, "va/records")
	scenario.Ok(err)
	fb := fbs[0]
	scenario.Must(pb.BeginTrans())
	scenario.Ok(fb.LockRange(200, 50, core.Shared))

	_, fcs, err := e.Open(1, "va/records")
	scenario.Ok(err)
	fc := fcs[0]
	scenario.Ok(fc.LockRange(400, 25, core.Exclusive))

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
	scenario.Ok(fb.LockRange(300, 10, core.Exclusive))
	var errA, errB error
	waitA, waitB := vtime.NewGroup(e.Clock), vtime.NewGroup(e.Clock)
	waitA.Go(func() { errA = fa.LockRange(300, 10, core.Exclusive) }) // A waits on B
	waitB.Go(func() { errB = fb.LockRange(400, 5, core.Exclusive) })  // B waits on C
	// Give the waits a moment to queue.
	e.Clock.Sleep(50 * time.Millisecond)

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
	scenario.Must(fc.Unlock(400, 25))
	if waitB.Wait(); errB != nil {
		scenario.Ok(fmt.Errorf("B's second lock: %w", errB))
	}
	waitB.Go(func() { errB = fb.LockRange(0, 10, core.Exclusive) }) // B waits on A: cycle
	e.Clock.Sleep(50 * time.Millisecond)

	edges = sys.Cluster().WaitEdges()
	fmt.Println()
	for _, e := range edges {
		fmt.Printf("  %s waits-for %s on %s\n", e.Waiter, e.Holder, e.FileID)
	}
	victims := sys.DetectDeadlocksOnce()
	fmt.Printf("  detector victims (youngest txn policy): %v\n", victims)

	// The survivor's wait completes; the victim's request is cancelled.
	if waitA.Wait(); errA != nil {
		scenario.Ok(fmt.Errorf("survivor's lock: %w", errA))
	}
	if waitB.Wait(); errB != nil {
		fmt.Printf("  victim's queued request failed as expected: %v\n", errB)
	}
	scenario.Ok(pa.EndTrans())
	fmt.Println()
	fmt.Println("survivor committed; deadlock resolved.")
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
	// The merged summary spans every file of a site's lock manager: the
	// oldest waiter it names is the cluster-operator answer to "who has
	// been stuck longest here", not the oldest on one file.
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
