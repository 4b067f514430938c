package scenario

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/fs"
	"repro/internal/invariant"
	"repro/internal/simdisk"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
	"repro/internal/wfg"
)

// Script replays one scenario file (testdata/scenarios), or a session
// typed at the terminal.  Spec lines come first, each a flag without its
// dash ("sites 3", the default, "volumes va vb", "seed 7", "faults",
// "leases", an ablation switch of the paper's section 6 such as
// "doublelog", or "vax750" for the 1985 testbed's latencies); then
// session words, one Run client on the virtual clock ("help" lists them),
// each followed by any "expect output|error TEXT" or "expect counter NAME
// N [SPEC N]...", which counts from the last "mark" word (or the first
// word) and wants the count after a SPEC line the run has set, if any.
// After the words every site is crash-restarted and the section 5 audit
// runs: "expect verdict pass|fail" states its outcome (pass if unstated),
// and "expect atomic PATH..." and "expect replica PATH SITE" check the
// recovered files (invariant.Atomic and invariant.Replica).  A file may
// instead hold one "chaos FLAGS" line and its expect lines.  In a file an
// unexpected error or unmet expectation fails the run with a *FileError
// naming the line; at the terminal it is printed and the session goes on.
type Script struct {
	Name string    // the input's name; "-" is the terminal
	In   io.Reader // the words
	Out  io.Writer // the transcript
	// Spec is spec lines set before the input's own ("doublelog").
	Spec []string
	// Marks is filled by Run: each named mark's segment, in order.
	Marks []Mark
	// Chaos runs a file's chaos line (FLAGS as locus chaos takes them);
	// nil refuses a chaos file with ErrChaosFile.
	Chaos func(args []string) (report string, checks invariant.Report, counters stats.Snapshot, err error)
	Probe *Probe // set: the replay is one point of a crash sweep
}

// Probe makes a replay one point of a crash sweep (internal/crashprobe).
// The words before the file's "probe [SITE:VOL...]" line are its set-up,
// whose stable writes are not crash points; without the line the set-up
// is empty.  The line names the disks the sweep counts (each site's own
// volume if it names none) and arms Arm to fail its (Index+1)-th stable
// write after it.  After the words every process they left is killed, and
// recovery restarts only the crashed sites.  The counting run (Arm nil)
// checks every expectation, as locus run does; an armed replay checks
// only the audit and the expect atomic and replica lines, and there a
// word's error aborts its transaction, which is then never confirmed, and
// the replay goes on.
type Probe struct {
	Arm     *Disk
	Index   int
	Class   simdisk.IOKind // with ByClass, only writes of this class count
	ByClass bool
	Trace   bool // attach forensics to the violations

	Disks  []Disk // the probe line's disks
	Writes []int  // each disk's stable writes after the probe line
	Verdict
}

// Verdict is what a probe replay saw.
type Verdict struct {
	Fired      bool     // the armed disk failed
	Confirmed  bool     // the first transaction end after the probe line committed
	State      string   // the first expect atomic line's state
	Violations []string `json:",omitempty"`
	Forensics  []string `json:",omitempty"` // trace tails of the expect lines' files
}

// Mark is what a named mark's segment spent: the counters from the mark
// line to the next one or the end of the words.
type Mark struct {
	Name     string // the mark line's words after "mark"
	Counters stats.Snapshot
}

// Disk is one volume at one site.
type Disk struct {
	Site   simnet.SiteID
	Volume string
}

// FileError is a file's failure at one of its lines: an unexpected error
// or an unmet expectation.
type FileError struct {
	Name string
	Line int
	Err  error
}

func (e *FileError) Error() string { return fmt.Sprintf("%s:%d: %v", e.Name, e.Line, e.Err) }

// ErrChaosFile refuses a chaos file where no chaos runner is given: its
// run is a chaos.Run, with no words of its own to crash.
var ErrChaosFile = errors.New("scenario: a chaos file replays under locus run only")

// session is one run of a script.
type session struct {
	*Script
	raw        string // the line last read
	line       int    // and its number
	in         *bufio.Scanner
	tty        bool // stdin: prompt, and no error ends the session
	armed      bool // an armed probe replay: words may fail
	spec       Spec
	specs      *flag.FlagSet
	volOptions fs.Volume // the ablation spec lines' fields, which setVolumes copies
	e          *Env
	procs      map[string]*core.Process
	files      map[[2]string]*core.File // {proc, path} -> handle
	bg         *vtime.Group
	pending    []*result             // go words not yet waited for
	last       result                // the word the expect lines check
	counters   func() stats.Snapshot // what expect counter reads
	base       stats.Snapshot        // the counters at the last mark
	marking    bool                  // the last mark was named
	verdict    int                   // the expect verdict line, if any
	wantPass   bool
	model      model
	hasProbe   bool             // a probe line is ahead (a file is read whole)
	paths      []string         // the files the atomic and replica lines name
	post       []result         // those lines, checked after recovery
	checks     invariant.Report // and their verdicts
	probeAt    []int64          // each probe disk's writes at the probe line
	ended      bool             // a transaction has ended since the probe line
	recovered  bool             // the cluster came back and the post lines ran
}

// result is what one word, read at line, printed and returned.
type result struct {
	line      int
	word, out string
	err       error
	expected  bool // an expect error line named err
}

// Run replays the script.  The error is a *FileError for a file that
// failed at a line, ErrChaosFile, or a harness error; a probe replay
// reports the audit and the post-recovery lines in its Probe instead.
func (sc *Script) Run() error {
	s := &session{Script: sc, tty: sc.Name == "-", wantPass: true, armed: sc.Probe != nil && sc.Probe.Arm != nil,
		procs: map[string]*core.Process{}, files: map[[2]string]*core.File{}, model: newModel()}
	in := sc.In
	if !s.tty {
		src, err := io.ReadAll(in)
		if err != nil {
			return err
		}
		for _, l := range strings.Split(string(src), "\n") {
			switch f := strings.Fields(l); {
			case len(f) > 2 && f[0] == "expect" && f[1] == "atomic":
				s.paths = append(s.paths, f[2:]...)
			case len(f) > 2 && f[0] == "expect" && f[1] == "replica":
				s.paths = append(s.paths, f[2])
			case len(f) > 0 && f[0] == "probe":
				s.hasProbe = true
			}
		}
		in = bytes.NewReader(src)
	}
	s.in = bufio.NewScanner(in)
	s.specLines()
	for _, l := range sc.Spec {
		if err := s.setSpec(strings.Fields(l)); err != nil {
			return fmt.Errorf("%s: spec line %q: %w", sc.Name, l, err)
		}
	}
	args, ok := s.next()
	for ; ok && s.specs.Lookup(args[0]) != nil; args, ok = s.next() {
		if err := s.check(s.setSpec(args)); err != nil {
			return err
		}
	}
	if ok && args[0] == "chaos" {
		if sc.Chaos == nil || sc.Probe != nil {
			return fmt.Errorf("%s: %w", sc.Name, ErrChaosFile)
		}
		return s.chaos(args)
	}
	scn := Scenario{Spec: s.spec, Recover: RestartAll, Files: slices.Compact(slices.Sorted(slices.Values(s.paths))), Absent: s.model.absent,
		Clients: []func(*Env){func(e *Env) {
			s.e, s.bg = e, vtime.NewGroup(e.Clock)
			s.base = e.Sys.Stats().Snapshot()
			s.counters = func() stats.Snapshot { return e.Sys.Stats().Snapshot().Sub(s.base) }
			s.setVolumes()
			if !s.hasProbe {
				Ok(s.probe(nil))
			}
			Ok(s.words(args, ok, func(args []string) (string, error) {
				// What the word set off at this instant runs before the next.
				defer vtime.Settle(e.Clock)
				defer s.probed(false)
				return s.exec(args, false)
			}))
			s.endMark()
			s.probed(true)
			if sc.Probe != nil {
				s.endProcs()
			}
		}},
		Check: func(e *Env, _ *Outcome) { s.checkPost(e) },
	}
	if sc.Probe != nil {
		scn.Recover, scn.Trace = RestartCrashed, sc.Probe.Trace
	}
	out, err := Run(scn)
	if err != nil {
		return err
	}
	if p := sc.Probe; p != nil {
		if !s.recovered { // a restart failed: there was nothing to check
			p.State = "unrecoverable"
		}
		if p.Violations = append(out.Checks, s.checks...).Violations(); len(p.Violations) > 0 && p.Trace {
			for _, path := range scn.Files {
				p.Forensics = append(p.Forensics, invariant.Forensics(s.e.Trace, path)...)
			}
		}
		return nil
	}
	for i, c := range s.checks {
		if len(c.Violations) > 0 {
			return s.failf(s.post[i].line, "%s", strings.Join(s.checks[i:i+1].Violations(), "; "))
		}
	}
	return s.audited(out.Checks)
}

// specLines binds the spec lines to the fields they set: the Spec's own
// (sites and volumes, the last of them winning, and faults), its
// cluster.Config's (seed, the layer flags, and vax750's latencies) and,
// for the ablation switches of the paper's section 6 experiments, the
// fs.Volume fields setVolumes sets.
func (s *session) specLines() {
	specs := flag.NewFlagSet("spec", flag.ContinueOnError)
	specs.SetOutput(io.Discard)
	s.spec.Volumes = PerSite(3)
	specs.Func("sites", "", func(v string) error {
		n, err := strconv.Atoi(v)
		s.spec.Volumes = PerSite(max(n, 0))
		return err
	})
	specs.Func("volumes", "", func(v string) error { s.spec.Volumes = strings.Fields(v); return nil })
	specs.Int64Var(&s.spec.Net.Seed, "seed", 0, "")
	specs.BoolVar(&s.spec.Faults, "faults", false, "")
	s.spec.LayerFlags(specs)
	specs.BoolVar(&s.volOptions.DoubleLogWrite, "doublelog", false, "")
	specs.BoolVar(&s.volOptions.PerFilePrepareLogs, "perfileprepare", false, "")
	specs.BoolVar(&s.volOptions.PrefetchOnLock, "prefetch", false, "")
	specs.BoolVar(&s.volOptions.CleanCacheForDiff, "cleancache", false, "")
	specs.BoolFunc("vax750", "", func(string) error { s.spec = s.spec.At(costmodel.Vax750()); return nil })
	s.specs = specs
}

// setSpec sets one spec line; a switch without a value is set true.
func (s *session) setSpec(args []string) error {
	return s.specs.Set(args[0], cmp.Or(strings.Join(args[1:], " "), "true"))
}

// chaos runs a chaos file: its one chaos line and the expect lines.
func (s *session) chaos(first []string) error {
	var checks invariant.Report
	if err := s.words(first, true, func(args []string) (string, error) {
		if args[0] != "chaos" || checks != nil {
			return "", errors.New("a chaos file holds one chaos line and its expect lines")
		}
		report, c, counters, err := s.Chaos(args[1:])
		if err == nil {
			checks, s.counters = c, func() stats.Snapshot { return counters }
		}
		return report, err
	}); err != nil {
		return err
	}
	return s.audited(checks)
}

// next reads the next line that is neither blank nor a comment and
// splits it into words; ok is false at the end of the input.
func (s *session) next() (args []string, ok bool) {
	for {
		if s.tty {
			fmt.Fprint(s.Out, "locus> ")
		}
		if !s.in.Scan() {
			return nil, false
		}
		s.line++
		if s.raw = strings.TrimSpace(s.in.Text()); s.raw != "" && !strings.HasPrefix(s.raw, "#") {
			if args = strings.Fields(s.raw); !s.tty && args[0] != "expect" {
				fmt.Fprintln(s.Out, "locus>", s.raw)
			}
			return args, true
		}
	}
}

// failf is a failure at a line of the input.
func (s *session) failf(line int, format string, args ...any) error {
	return &FileError{Name: s.Name, Line: line, Err: fmt.Errorf(format, args...)}
}

// check returns err as a failure at the current line in a file; at the
// terminal it prints it and returns nil.
func (s *session) check(err error) error {
	if err != nil && s.tty {
		fmt.Fprintln(s.Out, "error:", err)
	} else if err != nil {
		return s.failf(s.line, "%v", err)
	}
	return nil
}

// words runs the words, from first on, and their expect lines until the
// input ends; word runs one word.  A word's error fails a file unless an
// expect error line names it, or the replay is armed.
func (s *session) words(first []string, ok bool, word func([]string) (string, error)) error {
	for args := first; ; args, ok = s.next() {
		if r := s.last; (!ok || args[0] != "expect") && r.err != nil && !r.expected && !s.tty && !s.armed {
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
		if fmt.Fprint(s.Out, out); err != nil {
			fmt.Fprintln(s.Out, "error:", err)
		}
		s.last = result{line: s.line, word: s.raw, out: out, err: err}
	}
}

// expect checks one expect line; a verdict, atomic or replica line is
// checked once the run is over.  An armed replay checks none of the
// others: after its crash they may not hold.
func (s *session) expect(args []string) error {
	kind := strings.Join(args[1:min(2, len(args))], "")
	text := strings.Join(args[min(2, len(args)):], " ")
	switch kind {
	case "output", "error":
		got := s.last.out
		if kind == "error" {
			got, s.last.expected = fmt.Sprint(s.last.err), true
		}
		if !s.armed && (kind == "error" && s.last.err == nil || !strings.Contains(got, text)) {
			return fmt.Errorf("expect %s %q: %q gave %q", kind, text, s.last.word, got)
		}
	case "counter":
		c, known := stats.CounterByName(args[min(2, len(args)-1)])
		var want int64
		var err error
		for i := 3; i < len(args) && err == nil; i += 2 { // a SPEC N pair counts if the line is set
			if f := s.specs.Lookup(args[i-1]); i == 3 || f != nil && f.Value.String() != f.DefValue {
				want, err = strconv.ParseInt(args[i], 10, 64)
			} else if f == nil {
				err = errors.New(args[i-1])
			}
		}
		if !known || err != nil || len(args) < 4 || len(args)%2 != 0 {
			return errors.New("usage: expect counter NAME N [SPEC N]...")
		} else if got := s.counters().Get(c); got != want && !s.armed {
			return fmt.Errorf("expect counter %s %d: it is %d", c, want, got)
		}
	case "verdict":
		if text != "pass" && text != "fail" {
			return errors.New("usage: expect verdict pass|fail")
		}
		s.verdict, s.wantPass = s.line, text == "pass"
	case "atomic", "replica":
		if len(args) < 3 || kind == "replica" && (len(args) != 4 || siteArg(args[3]) == 0) {
			return errors.New("usage: expect atomic PATH..., expect replica PATH SITE")
		}
		s.post = append(s.post, result{line: s.line, word: s.raw})
	default:
		return errors.New("usage: expect output|error TEXT, expect counter NAME N [SPEC N]..., expect verdict pass|fail, expect atomic PATH..., expect replica PATH SITE")
	}
	return nil
}

// siteArg parses a site number; 0 is none.
func siteArg(arg string) simnet.SiteID {
	if n, err := strconv.Atoi(arg); err == nil && n > 0 {
		return simnet.SiteID(n)
	}
	return 0
}

// checkPost checks the atomic and replica lines on the recovered cluster.
func (s *session) checkPost(e *Env) {
	s.recovered = true
	for _, x := range s.post {
		args := strings.Fields(x.word)
		if args[1] == "replica" {
			s.checks = append(s.checks, invariant.Replica(e.Sys, args[2], siteArg(args[3])))
			continue
		}
		state, c := invariant.Atomic(e.Sys, args[2:], s.model.images(args[2:]))
		if s.checks = append(s.checks, c); s.Probe != nil && s.Probe.State == "" {
			s.Probe.State = state
		}
	}
}

// audited checks the section 5 audit against the expect verdict line.
func (s *session) audited(checks invariant.Report) error {
	if verdict := map[bool]string{true: "pass", false: "fail"}; checks.OK() != s.wantPass {
		return s.failf(cmp.Or(s.verdict, s.line), "expect verdict %s: the section 5 audit gave %s %q",
			verdict[s.wantPass], verdict[checks.OK()], checks.Violations())
	}
	return nil
}

// wordList is the word list help prints; a word given fewer arguments than
// its <required> ones gets its usage back.  A lock waits only under go.
var wordList = []string{
	"proc <name> <site>", "begin <proc>", "end <proc>", "abort <proc>", "write <proc> <vol/file> <off> <text...>",
	"fill <proc> <vol/file> <off> <n> <byte>", "read <proc> <vol/file> <off> <len> [count], count reads of consecutive len-byte records",
	"lock <proc> <vol/file> <off> <len> [s|x] [nontxn]", "unlock <proc> <vol/file> <off> <len>",
	"sync <proc> <vol/file>", "close <proc> <vol/file>", "fork <proc> <child> <site>", "exitproc <proc>",
	"kill <proc>", "migrate <proc> <site>", "replica <vol> <site>", "sleep <duration>",
	"<fault> [arg], as -schedule spells it: crash 1, restart 1, partition 2, heal, block 1>2, drop 0.3, ...",
	"probe [site:vol...], where the crash points of locus probe start", "mark [name...], where expect counter starts counting",
	"go <word...>", "wait", "locks <vol/file>", "edges", "deadlocks", "stats", "help", "quit",
	"<spec> lines before the words: sites, volumes, seed, faults, groupcommit, fastpaths, leases, placement, doublelog, perfileprepare, prefetch, cleancache, vax750",
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
	if _, err := KindByName(args[0]); err == nil {
		return s.fault(args)
	}
	i := slices.IndexFunc(wordList, func(u string) bool { return strings.Fields(u)[0] == args[0] })
	if i < 0 {
		return "", fmt.Errorf("unknown word %q (try help)", args[0])
	} else if len(args)-1 < strings.Count(wordList[i], "<") {
		return "", fmt.Errorf("usage: %s", wordList[i])
	}
	var key string // the transaction the word's process is in
	var confirm func()
	if !bg && strings.HasPrefix(wordList[i], args[0]+" <proc>") {
		key, confirm = s.model.track(args, s.line)
	}
	defer func() {
		if r := recover(); r != nil {
			we, ok := r.(wordError)
			if !ok {
				panic(r)
			}
			out, err = "", we.error
		}
		if err == nil && confirm != nil {
			confirm()
		}
		if args[0] == "end" && s.model.marked && !s.ended && s.Probe != nil {
			s.ended, s.Probe.Confirmed = true, err == nil
		}
		if s.armed && err != nil && key != "" && !s.model.doomed[key] && args[0] != "end" {
			// As a transaction body's error does: abort, and skip the
			// rest of the transaction.
			s.model.doomed[key] = true
			top, _, _ := strings.Cut(key, "@")
			if p := s.procs[top]; p != nil {
				p.AbortTrans() //nolint:errcheck // best effort: the disk under it may have failed
			}
		}
	}()
	if s.model.doomed[key] {
		return "", errors.New("skipped: an earlier word's error aborted its transaction")
	}
	num := func(i int) int64 { return try(strconv.ParseInt(args[i], 10, 64)) }
	sys, b := s.e.Sys, new(strings.Builder)
	switch args[0] {
	case "help":
		fmt.Fprintf(b, "  %s\n", strings.Join(wordList, "\n  "))
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
	case "write", "fill":
		fmt.Fprintf(b, "wrote %d bytes\n", try(s.file(args).WriteAt(try(written(args)), num(3))))
	case "read":
		buf, count := make([]byte, num(4)), int64(1)
		if len(args) > 5 {
			count = num(5)
		}
		for i := int64(0); i < count; i++ {
			fmt.Fprintf(b, "%q\n", buf[:try(s.file(args).ReadAt(buf, num(3)+i*num(4)))])
		}
	case "lock":
		mode := core.Exclusive
		if len(args) > 5 && args[5] == "s" {
			mode = core.Shared
		}
		opts := core.LockOpts{NoWait: !bg, NonTxn: len(args) > 6 && args[6] == "nontxn"}
		try(0, s.file(args).LockRange(num(3), num(4), mode, opts))
		fmt.Fprintln(b, "locked")
	case "unlock":
		fmt.Fprintf(b, "unlocked (retained=%v)\n", try(s.file(args).Unlock(num(3), num(4))))
	case "sync":
		try(0, s.file(args).Sync())
	case "close":
		try(0, s.file(args).Close())
		delete(s.files, [2]string{args[1], args[2]})
	case "fork":
		c := try(s.proc(args[1]).Fork(simnet.SiteID(num(3))))
		s.procs[args[2]] = c
		fmt.Fprintf(b, "%s = pid %d at site %d (txn %q)\n", args[2], c.PID(), num(3), c.Txn())
	case "exitproc", "kill":
		if p := s.proc(args[1]); args[0] == "kill" {
			try(0, p.Kill())
		} else {
			try(0, p.Exit())
		}
		delete(s.procs, args[1])
		maps.DeleteFunc(s.files, func(k [2]string, _ *core.File) bool { return k[0] == args[1] })
	case "migrate":
		try(0, s.proc(args[1]).Migrate(simnet.SiteID(num(2))))
		fmt.Fprintf(b, "pid %d now at site %d\n", s.proc(args[1]).PID(), num(2))
	case "replica":
		try(0, sys.AddReplica(args[1], simnet.SiteID(num(2))))
		fmt.Fprintf(b, "%s replicated at site %d\n", args[1], num(2))
	case "probe":
		if bg || s.Probe != nil && s.probeAt != nil {
			return "", errors.New("probe: one probe line, not under go")
		}
		try(0, s.probe(args[1:]))
		fmt.Fprintln(b, "crash points start here")
	case "mark":
		if bg {
			return "", errors.New("mark: not under go")
		}
		s.endMark()
		if s.base, s.marking = sys.Stats().Snapshot(), len(args) > 1; s.marking {
			s.Marks = append(s.Marks, Mark{Name: strings.Join(args[1:], " ")})
		}
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

// written is the bytes a write or fill word writes.
func written(args []string) ([]byte, error) {
	if args[0] == "write" {
		return []byte(strings.Join(args[4:], " ")), nil
	}
	n, err := strconv.Atoi(args[4])
	if err != nil || n < 0 || len(args[5]) != 1 {
		return nil, errors.New("usage: fill <proc> <vol/file> <off> <n> <byte>: n >= 0 copies of one byte")
	}
	return bytes.Repeat([]byte(args[5]), n), nil
}

// fault parses a fault word with the -schedule grammar and applies it
// through the one fault applier.
func (s *session) fault(args []string) (string, error) {
	sched, err := ParseSchedule("0s:" + strings.Join(args, ":"))
	if err == nil {
		err = s.e.Apply(sched[0])
	}
	if err != nil {
		return "", err
	}
	switch f := sched[0]; f.Kind {
	case FaultCrash:
		return fmt.Sprintf("site %d down (its processes and unsynced data are lost)\n", f.Site), nil
	case FaultRestart:
		s.setVolumes() // the restart loaded the volumes afresh
		return fmt.Sprintf("site %d recovered (in doubt: %d)\n", f.Site, s.e.Sys.Cluster().Site(f.Site).InDoubtCount()), nil
	}
	return fmt.Sprintf("injected %s\n", strings.TrimPrefix(sched[0].String(), "0s:")), nil
}

// endMark ends a named mark's segment.
func (s *session) endMark() {
	if s.marking {
		s.Marks[len(s.Marks)-1].Counters = s.counters()
	}
}

// setVolumes sets the ablation spec lines on each site's own volume.
func (s *session) setVolumes() {
	a := &s.volOptions
	for i, vol := range s.spec.Volumes {
		if v := s.e.Sys.Cluster().Site(simnet.SiteID(i + 1)).Volume(vol); v != nil {
			v.DoubleLogWrite, v.PerFilePrepareLogs, v.PrefetchOnLock, v.CleanCacheForDiff = a.DoubleLogWrite, a.PerFilePrepareLogs, a.PrefetchOnLock, a.CleanCacheForDiff
		}
	}
}

// probe ends the set-up at a probe line naming disks (SITE:VOL words;
// none is each site's own volume): from here on each commit adds a step
// to the images, and a probe replay counts the disks' stable writes and
// arms its disk.
func (s *session) probe(names []string) error {
	s.model.marked = true
	var disks []Disk
	for _, w := range names {
		site, vol, _ := strings.Cut(w, ":")
		if d := (Disk{Site: siteArg(site), Volume: vol}); s.disk(d) != nil {
			disks = append(disks, d)
		} else {
			return fmt.Errorf("probe: no disk %s", w)
		}
	}
	for i, vol := range s.spec.Volumes {
		if len(names) == 0 {
			disks = append(disks, Disk{Site: simnet.SiteID(i + 1), Volume: vol})
		}
	}
	p := s.Probe
	if p == nil {
		return nil
	}
	for _, d := range disks {
		p.Disks, s.probeAt = append(p.Disks, d), append(s.probeAt, s.writes(d))
	}
	if p.Arm == nil {
		return nil
	}
	return s.e.Apply(Fault{Kind: FaultArmDisk, Site: p.Arm.Site, Volume: p.Arm.Volume, N: p.Index, Class: p.Class, ByClass: p.ByClass})
}

// probed notes, after each word, whether the armed disk has failed (a
// restart word would bring it back) and, once the words are done, each
// probe disk's stable writes since the probe line.
func (s *session) probed(done bool) {
	p := s.Probe
	if p == nil || s.probeAt == nil {
		return
	}
	if p.Arm != nil && !p.Fired {
		p.Fired = s.disk(*p.Arm).Crashed()
	}
	for i, d := range p.Disks {
		if done {
			p.Writes = append(p.Writes, int(s.writes(d)-s.probeAt[i]))
		}
	}
}

// endProcs ends every process the words started and left running, as
// the crash of every site ends them under RestartAll: a probe replay
// restarts only the crashed sites, so what a live process still holds -
// a lock, an open transaction, an uncommitted write - would read as
// leaked to the audit.  A process whose site is down is gone already.
func (s *session) endProcs() {
	for _, name := range slices.Sorted(maps.Keys(s.procs)) {
		s.procs[name].Kill() //nolint:errcheck // see above
	}
}

// disk is the disk under a volume at a site, nil if there is none.
func (s *session) disk(d Disk) *simdisk.Disk {
	if site := s.e.Sys.Cluster().Site(d.Site); site != nil && site.Volume(d.Volume) != nil {
		return site.Volume(d.Volume).Disk()
	}
	return nil
}

// writes counts a disk's stable writes of the probe's class.
func (s *session) writes(d Disk) int64 {
	if disk := s.disk(d); disk != nil && s.Probe.ByClass {
		return disk.StableWritesOfKind(s.Probe.Class)
	} else if disk != nil {
		return disk.StableWrites()
	}
	return 0
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

// model is the committed content a session's own words give each file,
// step by step, for expect atomic: no read disturbs the run.  A
// transaction's writes apply at its outermost end; a write outside a
// transaction or under go is not modelled.  Step 0 is a file's image at
// the probe line; each commit after it adds a step.
type model struct {
	steps     map[string][][]byte // path -> its image at each step
	confirmed map[string]int      // path -> the last step a confirmed commit reached
	pending   map[string][]edit   // transaction key -> its writes
	txns      map[string]string   // proc -> the key of its transaction
	depth     map[string]int      // transaction key -> nesting
	doomed    map[string]bool     // transactions a word's error aborted
	marked    bool                // the probe line has passed
}

type edit struct {
	path string
	off  int64
	data []byte
}

func newModel() model {
	return model{steps: map[string][][]byte{}, confirmed: map[string]int{}, pending: map[string][]edit{},
		txns: map[string]string{}, depth: map[string]int{}, doomed: map[string]bool{}}
}

// track applies a word of a process, read at line, to the model before
// it runs.  key is the transaction the process is in ("<top proc>@<line
// of its begin>", "" if none); confirm, when not nil, marks the commit
// the word makes as confirmed once the word succeeds.
func (m *model) track(args []string, line int) (key string, confirm func()) {
	name := args[1]
	key = m.txns[name]
	switch args[0] {
	case "begin":
		if key == "" {
			key = fmt.Sprintf("%s@%d", name, line)
			m.txns[name] = key
		}
		m.depth[key]++
	case "fork":
		if key != "" {
			m.txns[args[2]] = key
		}
	case "write", "fill":
		off, err := strconv.ParseInt(args[3], 10, 64)
		if data, derr := written(args); key != "" && err == nil && derr == nil {
			m.pending[key] = append(m.pending[key], edit{args[2], off, data})
		}
	case "end", "abort":
		if key == "" {
			break
		}
		if m.depth[key]--; args[0] == "abort" {
			m.depth[key] = 0
			delete(m.pending, key)
		}
		if m.depth[key] == 0 {
			maps.DeleteFunc(m.txns, func(_, k string) bool { return k == key })
			return key, m.commit(key)
		}
	}
	return key, nil
}

// commit applies key's pending writes, one new step per file (step 0
// itself before the probe line), and returns what marks them confirmed.
func (m *model) commit(key string) func() {
	var touched []string
	for _, ed := range m.pending[key] {
		st := m.steps[ed.path]
		if len(st) == 0 {
			st = [][]byte{nil}
		}
		if !slices.Contains(touched, ed.path) {
			touched = append(touched, ed.path)
			if m.marked {
				st = append(st, slices.Clone(st[len(st)-1]))
			}
		}
		img := st[len(st)-1]
		if end := ed.off + int64(len(ed.data)); end > int64(len(img)) {
			img = append(img, make([]byte, end-int64(len(img)))...)
		}
		copy(img[ed.off:], ed.data)
		st[len(st)-1] = img
		m.steps[ed.path] = st
	}
	delete(m.pending, key)
	return func() {
		for _, path := range touched {
			m.confirmed[path] = len(m.steps[path]) - 1
		}
	}
}

// absent reports whether path may be missing after recovery: its step 0
// is the empty image and no commit of it was confirmed, so its create may
// be undone.
func (m *model) absent(path string) bool {
	st := m.steps[path]
	return m.confirmed[path] == 0 && (len(st) == 0 || len(st[0]) == 0)
}

// images returns each path's steps and the last confirmed one.
func (m *model) images(paths []string) []invariant.Images {
	out := make([]invariant.Images, len(paths))
	for i, path := range paths {
		out[i] = invariant.Images{Steps: m.steps[path], Confirmed: m.confirmed[path]}
		if out[i].Steps == nil {
			out[i].Steps = [][]byte{nil} // never written: empty
		}
	}
	return out
}
