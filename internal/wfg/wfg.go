// Package wfg implements deadlock detection over the lock manager's
// wait-for edges.
//
// Section 3.1: "The Locus kernel does not detect deadlock.  Instead, an
// interface to operating system data is provided, permitting a system
// process to detect deadlock by constructing a wait-for graph, using
// conventional techniques."  This package is that system process: it
// gathers the per-site edges exported by lockmgr, builds the global
// graph, finds cycles (as strongly connected components), and picks
// victims under a pluggable policy.  Acting on a victim - aborting the
// transaction - is the caller's job, keeping resolution strategies open,
// exactly as the paper intends.
package wfg

import (
	"sort"
	"sync"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Graph is a wait-for graph over lock groups.
type Graph struct {
	// adj[waiter][holder] = files on which waiter waits for holder.
	adj map[string]map[string][]string
}

// Build constructs a graph from wait-for edges (typically the
// concatenation of every site's lockmgr.WaitEdges).
func Build(edges []lockmgr.WaitEdge) *Graph {
	g := &Graph{adj: make(map[string]map[string][]string)}
	for _, e := range edges {
		m := g.adj[e.Waiter]
		if m == nil {
			m = make(map[string][]string)
			g.adj[e.Waiter] = m
		}
		m[e.Holder] = append(m[e.Holder], e.FileID)
	}
	return g
}

// Nodes returns every group appearing in the graph, sorted.
func (g *Graph) Nodes() []string {
	set := map[string]bool{}
	for w, hs := range g.adj {
		set[w] = true
		for h := range hs {
			set[h] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WaitsFor reports whether waiter has an edge to holder.
func (g *Graph) WaitsFor(waiter, holder string) bool {
	_, ok := g.adj[waiter][holder]
	return ok
}

// Cycles returns the deadlocked groups as strongly connected components
// with more than one member (or a self-loop), each sorted, the list
// sorted by first member.  Every such component contains at least one
// deadlock cycle; aborting one member per component breaks it.
func (g *Graph) Cycles() [][]string {
	// Tarjan's SCC algorithm, iterative over sorted nodes for
	// determinism.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var comps [][]string

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true

		var succs []string
		for w := range g.adj[v] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] {
				if index[w] < low[v] {
					low[v] = index[w]
				}
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 || g.WaitsFor(comp[0], comp[0]) {
				sort.Strings(comp)
				comps = append(comps, comp)
			}
		}
	}

	for _, v := range g.Nodes() {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// Deadlocked reports whether any cycle exists.
func (g *Graph) Deadlocked() bool { return len(g.Cycles()) > 0 }

// Policy selects the victim to abort from one deadlock cycle.
type Policy func(cycle []string) string

// VictimYoungest picks the lexicographically greatest transaction group.
// Locus transaction identifiers are temporally unique and monotonically
// ordered, so this aborts the youngest transaction, preserving the most
// completed work.  Non-transaction groups are preferred as victims last
// (they cannot be rolled back).
func VictimYoungest(cycle []string) string {
	best := ""
	for _, g := range cycle {
		if len(g) > 4 && g[:4] == "txn:" {
			if best == "" || g > best {
				best = g
			}
		}
	}
	if best == "" {
		// All non-transactions: pick the greatest deterministically.
		for _, g := range cycle {
			if g > best {
				best = g
			}
		}
	}
	return best
}

// VictimOldest picks the lexicographically least transaction group (most
// work lost, but starvation-free for young transactions) - kept as an
// alternative resolution strategy, as the paper leaves the policy open.
func VictimOldest(cycle []string) string {
	best := ""
	for _, g := range cycle {
		if len(g) > 4 && g[:4] == "txn:" {
			if best == "" || g < best {
				best = g
			}
		}
	}
	if best == "" {
		for i, g := range cycle {
			if i == 0 || g < best {
				best = g
			}
		}
	}
	return best
}

// Victims applies the policy to every cycle, returning one victim per
// cycle, deduplicated and sorted.
func (g *Graph) Victims(policy Policy) []string {
	if policy == nil {
		policy = VictimYoungest
	}
	seen := map[string]bool{}
	var out []string
	for _, c := range g.Cycles() {
		v := policy(c)
		if v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// Detector periodically collects edges, finds deadlocks, and reports
// victims to a callback that is expected to abort them.
type Detector struct {
	// Collect gathers the current global wait-for edges (usually by
	// querying every site's lock manager).
	Collect func() []lockmgr.WaitEdge
	// Policy selects victims; nil means VictimYoungest.
	Policy Policy
	// OnVictim is invoked once per victim found in a scan.
	OnVictim func(group string, cycle []string)
	// Tracer, when set, records the victim's full cycle as
	// DeadlockVictim events (one per cycle member, the victim first),
	// closing the loop between detection and trace forensics.
	Tracer *trace.Tracer
	// Clock paces the scan interval.  Nil means the real-time clock.
	// Set before Start.
	Clock vtime.Clock
	// Stats, when set, counts scans ("deadlock_scans") and victims
	// ("deadlock_victims") into the registry behind the set.
	Stats *stats.Set

	mu   sync.Mutex
	stop chan struct{} // cap 1; Stop's signal to the scan goroutine
	exit *vtime.Gate   // released by the scan goroutine on exit
}

// Step performs one detection scan and returns the victims (after
// invoking OnVictim for each).
func (d *Detector) Step() []string {
	reg := d.Stats.Registry()
	reg.Counter("deadlock_scans").Inc()
	g := Build(d.Collect())
	cycles := g.Cycles()
	policy := d.Policy
	if policy == nil {
		policy = VictimYoungest
	}
	seen := map[string]bool{}
	var victims []string
	for _, c := range cycles {
		v := policy(c)
		if v == "" || seen[v] {
			continue
		}
		seen[v] = true
		victims = append(victims, v)
		// One event per cycle member so the trace shows the whole loop;
		// the victim leads and Arg counts the cycle length.
		d.Tracer.Record(trace.DeadlockVictim, v, v, int64(len(c)))
		for _, member := range c {
			if member != v {
				d.Tracer.Record(trace.DeadlockVictim, v, member, int64(len(c)))
			}
		}
		if d.OnVictim != nil {
			d.OnVictim(v, c)
		}
	}
	reg.Counter("deadlock_victims").Add(int64(len(victims)))
	sort.Strings(victims)
	return victims
}

// Start runs Step every interval until Stop is called.
func (d *Detector) Start(interval time.Duration) {
	clk := d.Clock
	if clk == nil {
		clk = vtime.Real()
	}
	d.mu.Lock()
	if d.stop != nil {
		d.mu.Unlock()
		return
	}
	stop := make(chan struct{}, 1)
	exit := vtime.NewGate(clk)
	d.stop = stop
	d.exit = exit
	d.mu.Unlock()
	clk.Go(func() {
		defer exit.Release()
		// A Stop that lands mid-scan is found waiting on the next receive.
		for {
			if _, stopped := vtime.WaitRecv(clk, stop, interval); stopped {
				return
			}
			d.Step()
		}
	})
}

// Stop halts a running detector and waits for its scan goroutine to
// exit, so no Step runs after Stop returns.  Safe to call when not
// started.
func (d *Detector) Stop() {
	clk := d.Clock
	if clk == nil {
		clk = vtime.Real()
	}
	d.mu.Lock()
	stop, exit := d.stop, d.exit
	d.stop, d.exit = nil, nil
	d.mu.Unlock()
	if stop != nil {
		vtime.NotifySend(clk, stop, struct{}{})
		exit.Wait()
	}
}
