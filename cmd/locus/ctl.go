package main

import (
	"bufio"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/wfg"
)

type shell struct {
	sys   *core.System
	procs map[string]*core.Process
	files map[[2]string]*core.File // {proc, path} -> handle
}

// ctlCmd is an interactive shell for a simulated cluster: it drives the
// transaction facility's public API so the paper's scenarios
// (multi-site transactions, migration, crashes, partitions, recovery)
// can be reproduced by hand.  Start it and type "help":
//
//	locus ctl -sites 3
//	locus> begin p1
//	locus> write p1 va/f 0 hello
//	locus> end p1
//	locus> crash 1
//	locus> restart 1
func ctlCmd(fs *flag.FlagSet) func() error {
	nSites := fs.Int("sites", 3, "number of sites (each gets volume v<N>)")
	batch := fs.Bool("batch", false, "exit on first error (for scripted use)")
	return func() error {
		sys, err := scenario.Spec{Volumes: scenario.PerSite(*nSites)}.Build()
		if err != nil {
			return err
		}
		sh := &shell{sys: sys, procs: map[string]*core.Process{}, files: map[[2]string]*core.File{}}
		fmt.Printf("locus ctl: %d sites, volumes v1..v%d (type 'help')\n", *nSites, *nSites)
		sc := bufio.NewScanner(os.Stdin)
		for {
			fmt.Print("locus> ")
			if !sc.Scan() {
				return nil
			}
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if line == "quit" || line == "exit" {
				return nil
			}
			if err := sh.exec(strings.Fields(line)); err != nil {
				fmt.Println("error:", err)
				if *batch {
					return err
				}
			}
		}
	}
}

func (sh *shell) proc(name string) (*core.Process, error) {
	p, ok := sh.procs[name]
	if !ok {
		return nil, fmt.Errorf("no process %q (use: proc %s <site>)", name, name)
	}
	return p, nil
}

// file resolves the "<proc> <vol/file> <n>..." arguments a file command
// starts with: the process's handle on the file (opened, or created, on
// first use) and the numbers that follow.
func (sh *shell) file(name, path string, nums ...string) (*core.File, []int64, error) {
	p, err := sh.proc(name)
	if err != nil {
		return nil, nil, err
	}
	var ns []int64
	for _, s := range nums {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, nil, err
		}
		ns = append(ns, n)
	}
	if f, ok := sh.files[[2]string{name, path}]; ok {
		return f, ns, nil
	}
	f, err := p.Open(path)
	if err != nil && strings.Contains(err.Error(), "no such file") {
		f, err = p.Create(path)
	}
	if err != nil {
		return nil, nil, err
	}
	sh.files[[2]string{name, path}] = f
	return f, ns, nil
}

// ctlCommands is the shell's command list, in help order; a command
// given fewer arguments than its <required> ones gets its usage back.
var ctlCommands = []struct{ name, args, help string }{
	{"proc", "<name> <site>", "create a process"},
	{"begin", "<proc>", "begin a transaction (or nest one level)"},
	{"end", "<proc>", "commit (or leave one nesting level)"},
	{"abort", "<proc>", "abort the transaction"},
	{"write", "<proc> <vol/file> <off> <text...>", ""},
	{"read", "<proc> <vol/file> <off> <len>", ""},
	{"lock", "<proc> <vol/file> <off> <len> [s|x]", "no-wait; exclusive unless s"},
	{"unlock", "<proc> <vol/file> <off> <len>", ""},
	{"sync", "<proc> <vol/file>", "commit now (non-transaction)"},
	{"fork", "<proc> <child> <site>", "member process"},
	{"exitproc", "<proc>", "complete a member process"},
	{"migrate", "<proc> <site>", ""},
	{"crash", "<site>", "lose the site's processes and unsynced data"},
	{"restart", "<site>", "recover the site"},
	{"partition", "[site...]", "cut these sites off from the rest"},
	{"heal", "", "rejoin every partition"},
	{"deadlocks", "", "run one detection scan"},
	{"edges", "", "show the wait-for graph"},
	{"stats", "", "cluster counters (VAX model)"},
	{"help", "", ""},
	{"quit", "", ""},
}

func (sh *shell) exec(args []string) error {
	if len(args) == 0 {
		return nil
	}
	i := slices.IndexFunc(ctlCommands, func(c struct{ name, args, help string }) bool { return c.name == args[0] })
	if i < 0 {
		return fmt.Errorf("unknown command %q (try help)", args[0])
	}
	if c := ctlCommands[i]; len(args)-1 < strings.Count(c.args, "<") {
		return fmt.Errorf("usage: %s %s", c.name, c.args)
	}
	switch args[0] {
	case "help":
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for _, c := range ctlCommands {
			fmt.Fprintf(w, "  %s %s\t%s\n", c.name, c.args, c.help)
		}
		w.Flush()
	case "proc":
		site, err := strconv.Atoi(args[2])
		if err != nil {
			return err
		}
		p, err := sh.sys.NewProcess(simnet.SiteID(site))
		if err != nil {
			return err
		}
		sh.procs[args[1]] = p
		fmt.Printf("%s = pid %d at site %d\n", args[1], p.PID(), site)
	case "begin":
		p, err := sh.proc(args[1])
		if err != nil {
			return err
		}
		n, err := p.BeginTrans()
		if err != nil {
			return err
		}
		fmt.Printf("txn %s nesting %d\n", p.Txn(), n)
	case "end", "abort":
		p, err := sh.proc(args[1])
		if err != nil {
			return err
		}
		end, done := p.EndTrans, "committed (or nesting decreased)"
		if args[0] == "abort" {
			end, done = p.AbortTrans, "aborted"
		}
		if err := end(); err != nil {
			return err
		}
		fmt.Println(done)
	case "write":
		f, ns, err := sh.file(args[1], args[2], args[3])
		if err != nil {
			return err
		}
		n, err := f.WriteAt([]byte(strings.Join(args[4:], " ")), ns[0])
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d bytes\n", n)
	case "read":
		f, ns, err := sh.file(args[1], args[2], args[3], args[4])
		if err != nil {
			return err
		}
		buf := make([]byte, ns[1])
		m, err := f.ReadAt(buf, ns[0])
		if err != nil {
			return err
		}
		fmt.Printf("%q\n", buf[:m])
	case "lock", "unlock":
		f, ns, err := sh.file(args[1], args[2], args[3], args[4])
		if err != nil {
			return err
		}
		if args[0] == "unlock" {
			retained, err := f.Unlock(ns[0], ns[1])
			if err != nil {
				return err
			}
			fmt.Printf("unlocked (retained=%v)\n", retained)
			return nil
		}
		mode := core.Exclusive
		if len(args) > 5 && args[5] == "s" {
			mode = core.Shared
		}
		if err := f.LockRange(ns[0], ns[1], mode, core.LockOpts{NoWait: true}); err != nil {
			return err
		}
		fmt.Println("locked")
	case "sync":
		f, _, err := sh.file(args[1], args[2])
		if err != nil {
			return err
		}
		return f.Sync()
	case "fork":
		p, err := sh.proc(args[1])
		if err != nil {
			return err
		}
		site, err := strconv.Atoi(args[3])
		if err != nil {
			return err
		}
		c, err := p.Fork(simnet.SiteID(site))
		if err != nil {
			return err
		}
		sh.procs[args[2]] = c
		fmt.Printf("%s = pid %d at site %d (txn %q)\n", args[2], c.PID(), site, c.Txn())
	case "exitproc":
		p, err := sh.proc(args[1])
		if err != nil {
			return err
		}
		if err := p.Exit(); err != nil {
			return err
		}
		delete(sh.procs, args[1])
		maps.DeleteFunc(sh.files, func(k [2]string, _ *core.File) bool { return k[0] == args[1] })
	case "migrate":
		p, err := sh.proc(args[1])
		if err != nil {
			return err
		}
		site, err := strconv.Atoi(args[2])
		if err != nil {
			return err
		}
		if err := p.Migrate(simnet.SiteID(site)); err != nil {
			return err
		}
		fmt.Printf("pid %d now at site %d\n", p.PID(), site)
	case "crash", "restart":
		site, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		s := sh.sys.Cluster().Site(simnet.SiteID(site))
		if s == nil {
			return fmt.Errorf("no site %d", site)
		}
		if args[0] == "crash" {
			s.Crash()
			fmt.Printf("site %d down (its processes and unsynced data are lost)\n", site)
		} else {
			if err := s.Restart(); err != nil {
				return err
			}
			fmt.Printf("site %d recovered (in doubt: %d)\n", site, s.InDoubtCount())
		}
	case "partition":
		var sites []simnet.SiteID
		for _, a := range args[1:] {
			n, err := strconv.Atoi(a)
			if err != nil {
				return err
			}
			sites = append(sites, simnet.SiteID(n))
		}
		sh.sys.Cluster().Net().Partition(sites...)
		fmt.Println("partitioned")
	case "heal":
		sh.sys.Cluster().Net().Heal()
		fmt.Println("healed")
	case "deadlocks":
		victims := sh.sys.DetectDeadlocksOnce()
		if len(victims) == 0 {
			fmt.Println("no deadlock")
		} else {
			fmt.Println("aborted victims:", victims)
		}
	case "edges":
		g := wfg.Build(sh.sys.Cluster().WaitEdges())
		for _, n := range g.Nodes() {
			fmt.Println(" node:", n)
		}
		for _, e := range sh.sys.Cluster().WaitEdges() {
			fmt.Printf(" %s waits-for %s on %s\n", e.Waiter, e.Holder, e.FileID)
		}
	case "stats":
		rep := sh.sys.Cluster().Report(costmodel.Vax750())
		fmt.Println(rep)
		fmt.Println(sh.sys.Stats().Snapshot())
	}
	return nil
}
