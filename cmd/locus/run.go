package main

import (
	"errors"
	"flag"
	"io"
	"os"

	"repro/internal/chaos"
	"repro/internal/invariant"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// runCmd replays scenario files (see testdata/scenarios), or a session
// typed at the terminal ("-"), in the format of scenario.Script.  In a
// file an unexpected error or unmet expectation fails the run (exit 1)
// naming the file and line; at the terminal it is printed and the session
// goes on ("help" lists the words).
//
//	locus run testdata/scenarios/*.scn
//	locus run -
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

// runScript runs one file, or stdin when name is "-", with the spec
// lines set, printing the transcript to w; a file that fails at a line
// is a violation.
func runScript(name string, r io.Reader, w io.Writer, spec ...string) error {
	err := (&scenario.Script{Name: name, In: r, Out: w, Spec: spec, Chaos: runChaos}).Run()
	if errors.As(err, new(*scenario.FileError)) {
		return violation{err}
	}
	return err
}

// runChaos runs a chaos file's line: FLAGS as locus chaos takes them.
func runChaos(args []string) (string, invariant.Report, stats.Snapshot, error) {
	opts, fs := chaos.Defaults(), flag.NewFlagSet("chaos", flag.ContinueOnError)
	if opts.Flags(fs); fs.Parse(args) != nil {
		return "", nil, stats.Snapshot{}, errors.New("usage: chaos FLAGS, as locus chaos takes them")
	}
	res, err := chaos.Run(opts)
	if err != nil {
		return "", nil, stats.Snapshot{}, err
	}
	return res.Report(false), res.Checks, res.Counters, nil
}
