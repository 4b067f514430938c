package main

import (
	"bufio"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/invariant"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
	"repro/internal/wfg"
)

// runCmd replays scenario files (see testdata/scenarios), or stdin ("-").
// Spec lines come first, each a flag without its dash ("sites 3", the
// default, "volumes va vb", "seed 7", "faults", "leases"); then session
// words, one scenario.Run client on the virtual clock ("help" lists
// them), each followed by any "expect output|error TEXT", "expect counter
// NAME N" or "expect verdict pass|fail" (the section 5 audit after
// RestartAll; pass if unstated).  A file may instead hold one "chaos
// FLAGS" line and its expect lines.  In a file an unexpected error or
// unmet expectation fails the run (exit 1) naming the file and line:
//
//	$ locus run -
//	locus> proc p1 1
//	p1 = pid 1 at site 1
//	locus> begin p1
//	txn 00000001.1 nesting 1
//	locus> write p1 v1/f 0 hello
//	wrote 5 bytes
//	locus> end p1
//	committed (or nesting decreased)
//	locus> crash 1
//	site 1 down (its processes and unsynced data are lost)
//	locus> restart 1
//	site 1 recovered (in doubt: 0)
//	locus> proc p2 2
//	p2 = pid 2 at site 2
//	locus> read p2 v1/f 0 5
//	"hello"
func runCmd(fs *flag.FlagSet) func() error {
	return func() error {
		if fs.NArg() == 0 {
			return errors.New("usage: locus run FILE...|-")
		}
		for _, name := range fs.Args() {
			f, err := os.Stdin, error(nil)
			if name != "-" {
				if f, err = os.Open(name); err != nil {
					return err
				}
				defer f.Close() //nolint:errcheck
			}
			if err := runScript(name, f, os.Stdout); err != nil {
				return err
			}
		}
		return nil
	}
}

// session is one run of a scenario file, or of a terminal session.
type session struct {
	name, raw string // the input's name; the line last read
	line      int    // and its number
	in        *bufio.Scanner
	w         io.Writer
	tty       bool // stdin: prompt, and no error ends the session
	e         *scenario.Env
	procs     map[string]*core.Process
	files     map[[2]string]*core.File // {proc, path} -> handle
	bg        *vtime.Group
	pending   []*result             // go words not yet waited for
	last      result                // the word the expect lines check
	counters  func() stats.Snapshot // what expect counter reads
	verdict   int                   // the expect verdict line, if any
	wantPass  bool
}

// result is what one word, read at line, printed and returned.
type result struct {
	line      int
	word, out string
	err       error
	expected  bool // an expect error line named err
}

// runScript runs one file, or stdin when name is "-", printing the
// transcript to w.
func runScript(name string, r io.Reader, w io.Writer) error {
	s := &session{name: name, in: bufio.NewScanner(r), w: w, tty: name == "-", wantPass: true,
		procs: map[string]*core.Process{}, files: map[[2]string]*core.File{}}
	var spec scenario.Spec
	specs := flag.NewFlagSet("spec", flag.ContinueOnError)
	specs.SetOutput(io.Discard)
	sites := specs.Int("sites", 3, "")
	specs.Func("volumes", "", func(v string) error { spec.Volumes = strings.Fields(v); return nil })
	specs.Int64Var(&spec.Seed, "seed", 0, "")
	specs.BoolVar(&spec.Faults, "faults", false, "")
	spec.Layers.Flags(specs)
	args, ok := s.next()
	for ; ok && specs.Lookup(args[0]) != nil; args, ok = s.next() {
		if err := s.check(specs.Set(args[0], cmp.Or(strings.Join(args[1:], " "), "true"))); err != nil {
			return err
		}
	}
	if spec.Volumes == nil {
		spec.Volumes = scenario.PerSite(*sites)
	}
	if ok && args[0] == "chaos" {
		var checks invariant.Report
		if err := s.words(args, ok, func(args []string) (string, error) {
			if args[0] != "chaos" || checks != nil {
				return "", errors.New("a chaos file holds one chaos line and its expect lines")
			}
			opts, fs := chaos.Defaults(), flag.NewFlagSet("chaos", flag.ContinueOnError)
			if opts.Flags(fs); fs.Parse(args[1:]) != nil {
				return "", errors.New("usage: chaos FLAGS, as locus chaos takes them")
			}
			res, err := chaos.Run(opts)
			if err != nil {
				return "", err
			}
			checks, s.counters = res.Checks, func() stats.Snapshot { return res.Counters }
			return res.Report(false), nil
		}); err != nil {
			return err
		}
		return s.audited(checks)
	}
	out, err := scenario.Run(scenario.Scenario{Spec: spec, Recover: scenario.RestartAll,
		Clients: []func(*scenario.Env){func(e *scenario.Env) {
			s.e, s.bg = e, vtime.NewGroup(e.Clock)
			base := e.Sys.Stats().Snapshot()
			s.counters = func() stats.Snapshot { return e.Sys.Stats().Snapshot().Sub(base) }
			scenario.Ok(s.words(args, ok, func(args []string) (string, error) {
				// What the word set off at this instant runs before the next.
				defer vtime.Settle(e.Clock)
				return s.exec(args, false)
			}))
		}}})
	if err != nil {
		return err
	}
	return s.audited(out.Checks)
}

// next reads the next line that is neither blank nor a comment and
// splits it into words; ok is false at the end of the input.
func (s *session) next() (args []string, ok bool) {
	for {
		if s.tty {
			fmt.Fprint(s.w, "locus> ")
		}
		if !s.in.Scan() {
			return nil, false
		}
		s.line++
		if s.raw = strings.TrimSpace(s.in.Text()); s.raw != "" && !strings.HasPrefix(s.raw, "#") {
			if args = strings.Fields(s.raw); !s.tty && args[0] != "expect" {
				fmt.Fprintln(s.w, "locus>", s.raw)
			}
			return args, true
		}
	}
}

// failf is a failure at a line of the input.
func (s *session) failf(line int, format string, args ...any) error {
	return violation{fmt.Errorf("%s:%d: %s", s.name, line, fmt.Sprintf(format, args...))}
}

// check returns err as a failure at the current line in a file; at the
// terminal it prints it and returns nil.
func (s *session) check(err error) error {
	if err != nil && s.tty {
		fmt.Fprintln(s.w, "error:", err)
	} else if err != nil {
		return s.failf(s.line, "%v", err)
	}
	return nil
}

// words runs the words, from first on, and their expect lines until the
// input ends; word runs one word.  A word's error fails a file unless an
// expect error line names it.
func (s *session) words(first []string, ok bool, word func([]string) (string, error)) error {
	for args := first; ; args, ok = s.next() {
		if r := s.last; (!ok || args[0] != "expect") && r.err != nil && !r.expected && !s.tty {
			return s.failf(r.line, "%s: %v", r.word, r.err)
		}
		if !ok || args[0] == "quit" {
			return nil
		}
		if args[0] == "expect" {
			if err := s.check(s.expect(args)); err != nil {
				return err
			}
			continue
		}
		out, err := word(args)
		if fmt.Fprint(s.w, out); err != nil {
			fmt.Fprintln(s.w, "error:", err)
		}
		s.last = result{line: s.line, word: s.raw, out: out, err: err}
	}
}

// expect checks one expect line; a verdict line is checked once the run
// is over.
func (s *session) expect(args []string) error {
	kind := strings.Join(args[1:min(2, len(args))], "")
	text := strings.Join(args[min(2, len(args)):], " ")
	switch kind {
	case "output", "error":
		got := s.last.out
		if kind == "error" {
			got, s.last.expected = fmt.Sprint(s.last.err), true
		}
		if kind == "error" && s.last.err == nil || !strings.Contains(got, text) {
			return fmt.Errorf("expect %s %q: %q gave %q", kind, text, s.last.word, got)
		}
	case "counter":
		c, known := stats.CounterByName(args[min(2, len(args)-1)])
		want, err := strconv.ParseInt(args[len(args)-1], 10, 64)
		if !known || err != nil || len(args) != 4 {
			return errors.New("usage: expect counter NAME N")
		} else if got := s.counters().Get(c); got != want {
			return fmt.Errorf("expect counter %s %d: it is %d", c, want, got)
		}
	case "verdict":
		if text != "pass" && text != "fail" {
			return errors.New("usage: expect verdict pass|fail")
		}
		s.verdict, s.wantPass = s.line, text == "pass"
	default:
		return errors.New("usage: expect output|error TEXT, expect counter NAME N, expect verdict pass|fail")
	}
	return nil
}

// audited checks the section 5 audit against the expect verdict line.
func (s *session) audited(checks invariant.Report) error {
	if verdict := map[bool]string{true: "pass", false: "fail"}; checks.OK() != s.wantPass {
		return s.failf(cmp.Or(s.verdict, s.line), "expect verdict %s: the section 5 audit gave %s %q",
			verdict[s.wantPass], verdict[checks.OK()], checks.Violations())
	}
	return nil
}

// runWords is the word list help prints; a word given fewer arguments
// than its <required> ones gets its usage back.  A lock waits only under go.
var runWords = []string{
	"proc <name> <site>", "begin <proc>", "end <proc>", "abort <proc>", "write <proc> <vol/file> <off> <text...>",
	"read <proc> <vol/file> <off> <len>", "lock <proc> <vol/file> <off> <len> [s|x]", "unlock <proc> <vol/file> <off> <len>",
	"sync <proc> <vol/file>", "fork <proc> <child> <site>", "exitproc <proc>", "migrate <proc> <site>", "sleep <duration>",
	"<fault> [arg], as -schedule spells it: crash 1, restart 1, partition 2, heal, block 1>2, drop 0.3, ...",
	"go <word...>", "wait", "locks <vol/file>", "edges", "deadlocks", "stats", "help", "quit",
}

// wordError carries a failed step out of a word.
type wordError struct{ error }

// try unwraps a step of a word; an error ends the word with it.
func try[T any](v T, err error) T {
	if err != nil {
		panic(wordError{err})
	}
	return v
}

// exec runs one session word and returns what it printed; bg is set
// for a word run under go.
func (s *session) exec(args []string, bg bool) (out string, err error) {
	defer func() {
		if r := recover(); r != nil {
			we, ok := r.(wordError)
			if !ok {
				panic(r)
			}
			out, err = "", we.error
		}
	}()
	if _, err := scenario.KindByName(args[0]); err == nil {
		return s.fault(args), nil
	}
	i := slices.IndexFunc(runWords, func(u string) bool { return strings.Fields(u)[0] == args[0] })
	if i < 0 {
		return "", fmt.Errorf("unknown word %q (try help)", args[0])
	} else if len(args)-1 < strings.Count(runWords[i], "<") {
		return "", fmt.Errorf("usage: %s", runWords[i])
	}
	num := func(i int) int64 { return try(strconv.ParseInt(args[i], 10, 64)) }
	sys, b := s.e.Sys, new(strings.Builder)
	switch args[0] {
	case "help":
		fmt.Fprintf(b, "  %s\n", strings.Join(runWords, "\n  "))
	case "proc":
		p := try(sys.NewProcess(simnet.SiteID(num(2))))
		s.procs[args[1]] = p
		fmt.Fprintf(b, "%s = pid %d at site %d\n", args[1], p.PID(), num(2))
	case "begin":
		n := try(s.proc(args[1]).BeginTrans())
		fmt.Fprintf(b, "txn %s nesting %d\n", s.proc(args[1]).Txn(), n)
	case "end":
		try(0, s.proc(args[1]).EndTrans())
		fmt.Fprintln(b, "committed (or nesting decreased)")
	case "abort":
		try(0, s.proc(args[1]).AbortTrans())
		fmt.Fprintln(b, "aborted")
	case "write":
		fmt.Fprintf(b, "wrote %d bytes\n", try(s.file(args).WriteAt([]byte(strings.Join(args[4:], " ")), num(3))))
	case "read":
		buf := make([]byte, num(4))
		fmt.Fprintf(b, "%q\n", buf[:try(s.file(args).ReadAt(buf, num(3)))])
	case "lock":
		mode := core.Exclusive
		if len(args) > 5 && args[5] == "s" {
			mode = core.Shared
		}
		try(0, s.file(args).LockRange(num(3), num(4), mode, core.LockOpts{NoWait: !bg}))
		fmt.Fprintln(b, "locked")
	case "unlock":
		fmt.Fprintf(b, "unlocked (retained=%v)\n", try(s.file(args).Unlock(num(3), num(4))))
	case "sync":
		try(0, s.file(args).Sync())
	case "fork":
		c := try(s.proc(args[1]).Fork(simnet.SiteID(num(3))))
		s.procs[args[2]] = c
		fmt.Fprintf(b, "%s = pid %d at site %d (txn %q)\n", args[2], c.PID(), num(3), c.Txn())
	case "exitproc":
		try(0, s.proc(args[1]).Exit())
		delete(s.procs, args[1])
		maps.DeleteFunc(s.files, func(k [2]string, _ *core.File) bool { return k[0] == args[1] })
	case "migrate":
		try(0, s.proc(args[1]).Migrate(simnet.SiteID(num(2))))
		fmt.Fprintf(b, "pid %d now at site %d\n", s.proc(args[1]).PID(), num(2))
	case "sleep":
		s.e.Clock.Sleep(try(time.ParseDuration(args[1])))
	case "go":
		if bg || args[1] == "wait" {
			return "", errors.New("go runs one word that is not go or wait")
		}
		r := &result{line: s.line, word: strings.Join(args[1:], " ")}
		s.pending = append(s.pending, r)
		s.bg.Go(func() { r.out, r.err = s.exec(args[1:], true) })
	case "wait":
		s.bg.Wait()
		for _, r := range s.pending {
			if b.WriteString(r.out); r.err != nil {
				err = errors.Join(err, fmt.Errorf("%s: %w", r.word, r.err))
			}
		}
		s.pending = nil
	case "locks":
		fl := sys.Cluster().Site(try(sys.Cluster().StorageSite(args[1]))).Locks().Lookup(args[1])
		if fl == nil {
			return "", fmt.Errorf("%s has no lock list", args[1])
		}
		for _, e := range fl.Entries() {
			fmt.Fprintf(b, "pid %d %s %s [%d,%d) retained=%v non-txn=%v\n",
				e.Holder.PID, e.Holder.Group(), e.Mode, e.Off, e.Off+e.Len, e.Retained, e.NonTxn)
		}
	case "edges":
		edges := sys.Cluster().WaitEdges()
		for _, e := range edges {
			fmt.Fprintf(b, "%s waits-for %s on %s\n", e.Waiter, e.Holder, e.FileID)
		}
		fmt.Fprintf(b, "deadlocked: %v\n", wfg.Build(edges).Deadlocked())
	case "deadlocks":
		fmt.Fprintln(b, "aborted victims:", sys.DetectDeadlocksOnce())
	case "stats":
		fmt.Fprintf(b, "%s\n%s\n", sys.Cluster().Report(costmodel.Vax750()), sys.Stats().Snapshot())
	}
	return b.String(), err
}

// fault parses a fault word with the -schedule grammar and applies it
// through scenario's one fault applier.
func (s *session) fault(args []string) string {
	f := try(scenario.ParseSchedule("0s:" + strings.Join(args, ":")))[0]
	try(0, s.e.Apply(f))
	switch f.Kind {
	case scenario.FaultCrash:
		return fmt.Sprintf("site %d down (its processes and unsynced data are lost)\n", f.Site)
	case scenario.FaultRestart:
		return fmt.Sprintf("site %d recovered (in doubt: %d)\n", f.Site, s.e.Sys.Cluster().Site(f.Site).InDoubtCount())
	}
	return fmt.Sprintf("injected %s\n", strings.TrimPrefix(f.String(), "0s:"))
}

func (s *session) proc(name string) *core.Process {
	if p, ok := s.procs[name]; ok {
		return p
	}
	return try[*core.Process](nil, fmt.Errorf("no process %q (use: proc %s <site>)", name, name))
}

// file is the handle of the "<proc> <vol/file>" a file word names,
// opened (or created) on first use.
func (s *session) file(args []string) *core.File {
	key := [2]string{args[1], args[2]}
	if s.files[key] == nil {
		p := s.proc(args[1])
		f, err := p.Open(args[2])
		if err != nil && strings.Contains(err.Error(), "no such file") {
			f, err = p.Create(args[2])
		}
		s.files[key] = try(f, err)
	}
	return s.files[key]
}
