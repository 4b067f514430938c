package main

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/scenario"
)

// TestEverySubcommandParsesHelp: each registry entry binds a flag set
// that answers -h with flag.ErrHelp, so dispatch exits 0 on it.
func TestEverySubcommandParsesHelp(t *testing.T) {
	for _, c := range commands {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c.bind(fs)
		if err := fs.Parse([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h: %v, want flag.ErrHelp", c.name, err)
		}
	}
}

// TestUsageErrorsExit2: no subcommand, an unknown one and an unknown
// flag are usage errors.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{nil, {"locusbench"}, {"bench", "-no-such-flag"}, {"bench", "-exp", "nope"}} {
		if got := dispatch(args); got != 2 {
			t.Errorf("locus %s: exit %d, want 2", strings.Join(args, " "), got)
		}
	}
}

// TestReplayLineRuns: a chaos report's replay line, words after
// "locus", is a command dispatch accepts and replays to a pass.
func TestReplayLineRuns(t *testing.T) {
	sched, err := scenario.ParseSchedule("50ms:crash:2,150ms:restart:2")
	if err != nil {
		t.Fatal(err)
	}
	opts := chaos.Defaults()
	opts.Duration, opts.Schedule = 300*time.Millisecond, sched
	line := opts.ReplayCommand()
	args := strings.Fields(strings.ReplaceAll(line, "'", ""))
	if args[0] != "locus" || args[1] != "chaos" {
		t.Fatalf("replay line %q does not name locus chaos", line)
	}
	if got := dispatch(args[1:]); got != 0 {
		t.Fatalf("%s: exit %d, want 0", line, got)
	}
}
