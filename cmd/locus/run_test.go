package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// scenarioFiles lists the replayable scenario files.
func scenarioFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../../testdata/scenarios/*.scn")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario files: %v", err)
	}
	return files
}

// specCount is an expect counter line that states a count under a spec
// line; its third group holds the pairs.
var specCount = regexp.MustCompile(`(?m)^expect counter \S+ \d+((?: \S+ \d+)+)$`)

// TestScenarioFiles runs every file under testdata/scenarios: each must
// meet all its expectations and pass the section 5 audit, bare and under
// each spec line its expect counter lines state a count for.
func TestScenarioFiles(t *testing.T) {
	for _, path := range scenarioFiles(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		specs := []string{""}
		for _, m := range specCount.FindAllStringSubmatch(string(src), -1) {
			for i, f := range strings.Fields(m[1]) {
				if i%2 == 0 && !slices.Contains(specs, f) {
					specs = append(specs, f)
				}
			}
		}
		for _, spec := range specs {
			t.Run(strings.TrimSuffix(filepath.Base(path)+"+"+spec, "+"), func(t *testing.T) {
				var out strings.Builder
				if err := runScript(path, strings.NewReader(string(src)), &out, strings.Fields(spec)...); err != nil {
					t.Fatalf("%v\ntranscript:\n%s", err, out.String())
				}
			})
		}
	}
}

// TestAlteredExpectationFails: a copy of each file with one expectation
// altered - its first output or error expectation asking for text the run
// does not print, its first counter expectation asking for one more, its
// verdict line flipped to fail, its first atomic line also naming a file
// no word wrote, or its replica line naming a site with no copy - fails
// as a violation that names the file and the altered line.
func TestAlteredExpectationFails(t *testing.T) {
	alterations := []struct {
		line *regexp.Regexp
		to   func(string) string
	}{
		{regexp.MustCompile(`(?m)^expect (output|error) .*$`), func(l string) string { return l + " (altered)" }},
		{regexp.MustCompile(`(?m)^expect counter \S+ \d+`), func(l string) string {
			i := strings.LastIndex(l, " ")
			n, _ := strconv.Atoi(l[i+1:])
			return l[:i+1] + strconv.Itoa(n+1)
		}},
		{regexp.MustCompile(`(?m)^expect verdict pass$`), func(string) string { return "expect verdict fail" }},
		{regexp.MustCompile(`(?m)^expect atomic .*$`), func(l string) string { return l + " v1/altered" }},
		{regexp.MustCompile(`(?m)^expect replica \S+ \d+$`), func(l string) string { return l[:strings.LastIndex(l, " ")] + " 9" }},
	}
	for _, path := range scenarioFiles(t) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			altered := 0
			for _, a := range alterations {
				loc := a.line.FindIndex(src)
				if loc == nil {
					continue
				}
				altered++
				line := strings.Count(string(src[:loc[0]]), "\n") + 1
				mutated := string(src[:loc[0]]) + a.to(string(src[loc[0]:loc[1]])) + string(src[loc[1]:])
				err = runScript(path, strings.NewReader(mutated), new(strings.Builder))
				if want := fmt.Sprintf("%s:%d:", path, line); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("altered line %d: got %v, want a failure naming %s", line, err, want)
				} else if !errors.As(err, new(violation)) {
					t.Errorf("altered line %d is not a violation: %v", line, err)
				}
			}
			if altered == 0 {
				t.Fatal("no expectation to alter")
			}
		})
	}
}

// sameAtTerminal runs a scenario file, then types it at the terminal:
// both must pass, and print the same result lines apart from the file's
// echo of each word and the terminal's prompt.
func sameAtTerminal(t *testing.T, name string) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("../../testdata/scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	var file, tty strings.Builder
	if err := runScript(name, strings.NewReader(string(src)), &file); err != nil {
		t.Fatalf("as a file: %v", err)
	}
	if err := runScript("-", strings.NewReader(string(src)), &tty); err != nil {
		t.Fatalf("at the terminal: %v", err)
	}
	var want []string
	for _, l := range strings.Split(file.String(), "\n") {
		if !strings.HasPrefix(l, "locus> ") {
			want = append(want, l)
		}
	}
	if got := strings.ReplaceAll(tty.String(), "locus> ", ""); got != strings.Join(want, "\n") {
		t.Fatalf("terminal printed\n%s\nthe file printed\n%s", got, strings.Join(want, "\n"))
	}
}

// TestShellTransactionSession: a committed write read back after its
// storage site's crash and recovery prints at the terminal the result
// lines that locus ctl printed for the same session, and its file runs
// the same at the terminal as from the file.
func TestShellTransactionSession(t *testing.T) {
	in := "proc p1 1\nbegin p1\nwrite p1 v1/f 0 hello\nend p1\ncrash 1\nrestart 1\nproc p2 2\nread p2 v1/f 0 5\n"
	want := []string{
		"p1 = pid 1 at site 1",
		"txn 00000001.1 nesting 1",
		"wrote 5 bytes",
		"committed (or nesting decreased)",
		"site 1 down (its processes and unsynced data are lost)",
		"site 1 recovered (in doubt: 0)",
		"p2 = pid 2 at site 2",
		`"hello"`,
	}
	var out strings.Builder
	if err := runScript("-", strings.NewReader(in), &out); err != nil {
		t.Fatalf("terminal session ended with %v", err)
	}
	var got []string
	for _, l := range strings.Split(out.String(), "\n") {
		if l = strings.TrimSpace(strings.ReplaceAll(l, "locus> ", "")); l != "" {
			got = append(got, l)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("terminal printed\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	sameAtTerminal(t, "ctl-transaction.scn")
}

// TestShellLockAndDeadlockCommands: the Figure 3 session - locks, a
// wait in the background, the wait-for graph and a detection scan -
// runs the same at the terminal as from its file.
func TestShellLockAndDeadlockCommands(t *testing.T) { sameAtTerminal(t, "figure3-deadlock.scn") }

// TestShellProcessCommands: fork, exit, migration and a partition run
// the same at the terminal as from their file.
func TestShellProcessCommands(t *testing.T) { sameAtTerminal(t, "ctl-process.scn") }

// TestShellErrors: at the terminal an error is printed and the session
// goes on; the same line in a file fails the run and names the line.
func TestShellErrors(t *testing.T) {
	bad := []string{"nonsense", "begin ghost", "proc p", "crash notanumber", "block 1", "expect verdict maybe", "lock",
		"fill p v1/f 0 -1 A", "fill p v1/f 0 4 AB", "probe 9:v9", "expect atomic", "expect replica v1/f"}
	var out strings.Builder
	in := strings.Join(append(bad, "proc p 1", "help"), "\n")
	if err := runScript("-", strings.NewReader(in), &out); err != nil {
		t.Fatalf("terminal session ended with %v", err)
	}
	if n := strings.Count(out.String(), "error: "); n != len(bad) {
		t.Fatalf("%d errors printed, want %d:\n%s", n, len(bad), out.String())
	}
	if !strings.Contains(out.String(), "p = pid 1 at site 1") || !strings.Contains(out.String(), "<fault>") {
		t.Fatalf("session did not go on after its errors:\n%s", out.String())
	}
	for i, line := range bad {
		in := "proc p 1\n" + line + "\n"
		want := fmt.Sprintf("f.scn:%d:", 2)
		if err := runScript("f.scn", strings.NewReader(in), new(strings.Builder)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("bad line %d %q in a file: got %v, want a failure naming %s", i, line, err, want)
		}
	}
}
