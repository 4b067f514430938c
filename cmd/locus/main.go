// Command locus is the one front end to the reproduction: the paper's
// section 6 tables, the fault-injection and crash-point harnesses, the
// causal trace and the scenario-file interpreter, which also runs a
// session typed at the terminal, each a subcommand with its own flags.
//
// Usage:
//
//	locus <subcommand> [flags]   # locus <subcommand> -h lists the flags
//	locus                        # lists the subcommands
//
// Exit status: 0 on success, 1 when a run finished but broke an invariant
// or missed a gate, 2 on a harness or usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

// command is one subcommand: bind defines its flags on fs and returns
// the run, which reads them after parsing.
type command struct {
	name, help string
	bind       func(fs *flag.FlagSet) func() error
}

// commands is the one registry dispatch and the usage text are drawn from.
var commands = []command{
	{"bench", "the paper's section 6 tables, the -json snapshot, the -check gate and -telemetry", benchCmd},
	{"chaos", "seeded fault-injection runs and sweeps with the section 5 audit and a replay line", chaosCmd},
	{"probe", "exhaustive crash-point matrix: a crash at every stable write, then recovery and audit", probeCmd},
	{"trace", "causal timeline of a small cross-site workload, or its canonical or Chrome form", traceCmd},
	{"run", "replay scenario files, or a session typed at the terminal (-): transactions, locks, faults and expectations", runCmd},
}

func main() { os.Exit(dispatch(os.Args[1:])) }

// dispatch runs the subcommand args name and returns the exit status.
func dispatch(args []string) int {
	i := slices.IndexFunc(commands, func(c command) bool { return len(args) > 0 && c.name == args[0] })
	if i < 0 {
		w := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "usage: locus <subcommand> [flags]\n\nsubcommands:")
		for _, c := range commands {
			fmt.Fprintf(w, "  %s\t%s\n", c.name, c.help)
		}
		w.Flush()
		return 2
	}
	cmd := commands[i]
	fs := flag.NewFlagSet("locus "+cmd.name, flag.ContinueOnError)
	run := cmd.bind(fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := run()
	if err == nil {
		return 0
	}
	fmt.Fprintf(os.Stderr, "locus %s: %v\n", cmd.name, err)
	if errors.As(err, new(violation)) {
		return 1
	}
	return 2
}

// violation is a run that finished but broke an invariant or missed a
// gate (exit 1); any other error a subcommand returns is a harness or
// usage error (exit 2).
type violation struct{ error }

// fail writes report to the forensics file, when one was named, and
// returns err as a violation.
func fail(forensics, report string, err error) error {
	if forensics != "" {
		if werr := os.WriteFile(forensics, []byte(report), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "locus: writing forensics: %v\n", werr)
		} else {
			fmt.Fprintf(os.Stderr, "locus: failure forensics written to %s\n", forensics)
		}
	}
	return violation{err}
}

// column is one col-tagged field of a row struct.
type column struct {
	field          int
	header, format string
	zero           string // printed for a zero value, if set
}

// printTable prints rows, a slice of structs, as a titled table followed
// by notes: Markdown pipe rows under markdown, aligned text otherwise.
// Every field tagged col:"header[,format[,zero]]" is a column, in field
// order.  format is a printf verb (a time.Duration is given to it as
// fractional milliseconds) or, for a bool, "yes/no" text; unformatted
// durations print rounded to the millisecond.  zero replaces a zero
// value, except "omitempty", which drops a column that is zero in every
// row.
func printTable(w io.Writer, markdown bool, title string, rows any, notes ...string) {
	rv := reflect.ValueOf(rows)
	var cols []column
	for i, t := 0, rv.Type().Elem(); i < t.NumField(); i++ {
		tag, ok := t.Field(i).Tag.Lookup("col")
		if !ok {
			continue
		}
		parts := append(strings.SplitN(tag, ",", 3), "", "")
		c := column{field: i, header: parts[0], format: parts[1], zero: parts[2]}
		if c.zero == "omitempty" {
			c.zero = ""
			empty := true
			for r := 0; r < rv.Len() && empty; r++ {
				empty = rv.Index(r).Field(i).IsZero()
			}
			if empty {
				continue
			}
		}
		cols = append(cols, c)
	}
	lines := make([][]string, rv.Len()+1)
	for _, c := range cols {
		lines[0] = append(lines[0], c.header)
		for r := 0; r < rv.Len(); r++ {
			lines[r+1] = append(lines[r+1], c.cell(rv.Index(r).Field(c.field)))
		}
	}
	fmt.Fprintf(w, "\n## %s\n\n", title)
	if markdown {
		for i, l := range lines {
			fmt.Fprintln(w, "| "+strings.Join(l, " | ")+" |")
			if i == 0 {
				fmt.Fprintln(w, "|"+strings.Repeat(" --- |", len(cols)))
			}
		}
	} else {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, l := range lines {
			fmt.Fprintln(tw, strings.Join(l, "\t"))
		}
		tw.Flush()
	}
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
}

func (c column) cell(v reflect.Value) string {
	if c.zero != "" && v.IsZero() {
		return c.zero
	}
	switch x := v.Interface().(type) {
	case bool:
		if yes, no, ok := strings.Cut(c.format, "/"); ok {
			return map[bool]string{true: yes, false: no}[x]
		}
	case time.Duration:
		if c.format == "" {
			return x.Round(time.Millisecond).String()
		}
		return fmt.Sprintf(c.format, float64(x.Microseconds())/1000)
	}
	if c.format != "" {
		return fmt.Sprintf(c.format, v.Interface())
	}
	return fmt.Sprint(v.Interface())
}
