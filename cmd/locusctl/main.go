// Command locusctl is an interactive shell for a simulated Locus cluster:
// it drives the transaction facility's public API so the paper's
// scenarios (multi-site transactions, migration, crashes, partitions,
// recovery) can be reproduced by hand.
//
// Start it and type "help":
//
//	locusctl -sites 3
//	locus> begin p1
//	locus> write p1 va/f 0 hello
//	locus> end p1
//	locus> crash 1
//	locus> restart 1
//	locus> read p1 va/f 0 5
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/wfg"
)

var (
	nSites = flag.Int("sites", 3, "number of sites (each gets volume v<N>)")
	script = flag.Bool("batch", false, "exit on first error (for scripted use)")
)

type shell struct {
	sys   *core.System
	procs map[string]*core.Process
	files map[string]map[string]*core.File // proc -> path -> handle
}

func main() {
	flag.Parse()
	sys, err := scenario.Spec{Volumes: scenario.PerSite(*nSites)}.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sh := &shell{
		sys:   sys,
		procs: make(map[string]*core.Process),
		files: make(map[string]map[string]*core.File),
	}
	fmt.Printf("locusctl: %d sites, volumes v1..v%d (type 'help')\n", *nSites, *nSites)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("locus> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		if err := sh.exec(strings.Fields(line)); err != nil {
			fmt.Println("error:", err)
			if *script {
				os.Exit(1)
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

func (sh *shell) file(p *core.Process, name, path string) (*core.File, error) {
	m := sh.files[name]
	if m == nil {
		m = make(map[string]*core.File)
		sh.files[name] = m
	}
	if f, ok := m[path]; ok {
		return f, nil
	}
	f, err := p.Open(path)
	if err != nil {
		if !strings.Contains(err.Error(), "no such file") {
			return nil, err
		}
		f, err = p.Create(path)
		if err != nil {
			return nil, err
		}
	}
	m[path] = f
	return f, nil
}

func atoi64(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

func (sh *shell) exec(args []string) error {
	if len(args) == 0 {
		return nil
	}
	switch args[0] {
	case "help":
		fmt.Print(`commands:
  proc <name> <site>                create a process
  begin|end|abort <proc>            transaction control
  write <proc> <vol/file> <off> <text>
  read  <proc> <vol/file> <off> <len>
  lock  <proc> <vol/file> <off> <len> <s|x>
  unlock <proc> <vol/file> <off> <len>
  sync  <proc> <vol/file>           commit now (non-transaction)
  fork <proc> <child> <site>        member process
  exitproc <proc>                   complete a member process
  migrate <proc> <site>
  crash <site> | restart <site>
  partition <site...> | heal
  deadlocks                         run one detection scan
  edges                             show the wait-for graph
  stats                             cluster counters (VAX model)
  quit
`)
	case "proc":
		if len(args) != 3 {
			return fmt.Errorf("usage: proc <name> <site>")
		}
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
	case "begin", "end", "abort":
		if len(args) != 2 {
			return fmt.Errorf("usage: %s <proc>", args[0])
		}
		p, err := sh.proc(args[1])
		if err != nil {
			return err
		}
		switch args[0] {
		case "begin":
			n, err := p.BeginTrans()
			if err != nil {
				return err
			}
			fmt.Printf("txn %s nesting %d\n", p.Txn(), n)
		case "end":
			if err := p.EndTrans(); err != nil {
				return err
			}
			fmt.Println("committed (or nesting decreased)")
		case "abort":
			if err := p.AbortTrans(); err != nil {
				return err
			}
			fmt.Println("aborted")
		}
	case "write":
		if len(args) < 5 {
			return fmt.Errorf("usage: write <proc> <vol/file> <off> <text>")
		}
		p, err := sh.proc(args[1])
		if err != nil {
			return err
		}
		f, err := sh.file(p, args[1], args[2])
		if err != nil {
			return err
		}
		off, err := atoi64(args[3])
		if err != nil {
			return err
		}
		text := strings.Join(args[4:], " ")
		n, err := f.WriteAt([]byte(text), off)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d bytes\n", n)
	case "read":
		if len(args) != 5 {
			return fmt.Errorf("usage: read <proc> <vol/file> <off> <len>")
		}
		p, err := sh.proc(args[1])
		if err != nil {
			return err
		}
		f, err := sh.file(p, args[1], args[2])
		if err != nil {
			return err
		}
		off, err := atoi64(args[3])
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(args[4])
		if err != nil {
			return err
		}
		buf := make([]byte, n)
		m, err := f.ReadAt(buf, off)
		if err != nil {
			return err
		}
		fmt.Printf("%q\n", buf[:m])
	case "lock", "unlock":
		if len(args) < 5 {
			return fmt.Errorf("usage: %s <proc> <vol/file> <off> <len> [s|x]", args[0])
		}
		p, err := sh.proc(args[1])
		if err != nil {
			return err
		}
		f, err := sh.file(p, args[1], args[2])
		if err != nil {
			return err
		}
		off, err := atoi64(args[3])
		if err != nil {
			return err
		}
		length, err := atoi64(args[4])
		if err != nil {
			return err
		}
		if args[0] == "unlock" {
			retained, err := f.Unlock(off, length)
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
		if err := f.LockRange(off, length, mode, core.LockOpts{NoWait: true}); err != nil {
			return err
		}
		fmt.Println("locked")
	case "sync":
		if len(args) != 3 {
			return fmt.Errorf("usage: sync <proc> <vol/file>")
		}
		p, err := sh.proc(args[1])
		if err != nil {
			return err
		}
		f, err := sh.file(p, args[1], args[2])
		if err != nil {
			return err
		}
		return f.Sync()
	case "fork":
		if len(args) != 4 {
			return fmt.Errorf("usage: fork <proc> <child> <site>")
		}
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
		if len(args) != 2 {
			return fmt.Errorf("usage: exitproc <proc>")
		}
		p, err := sh.proc(args[1])
		if err != nil {
			return err
		}
		if err := p.Exit(); err != nil {
			return err
		}
		delete(sh.procs, args[1])
		delete(sh.files, args[1])
	case "migrate":
		if len(args) != 3 {
			return fmt.Errorf("usage: migrate <proc> <site>")
		}
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
		if len(args) != 2 {
			return fmt.Errorf("usage: %s <site>", args[0])
		}
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
	default:
		return fmt.Errorf("unknown command %q (try help)", args[0])
	}
	return nil
}
