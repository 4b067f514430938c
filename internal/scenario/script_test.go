package scenario

import (
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestMarkStartsTheCount: an expect counter line after a mark counts
// only the words after it, a count stated under a spec line holds when
// the caller sets that line, and each named mark's segment, up to the
// next mark, comes back in Script.Marks.
func TestMarkStartsTheCount(t *testing.T) {
	src := `proc p 1
begin p
write p v1/f 0 one
end p
expect counter txn_commits 1
mark second commit
begin p
write p v1/f 0 two
end p
expect counter txn_commits 1
expect counter txn_begins 3 fastpaths 1
mark
begin p
abort p
expect counter txn_commits 0
`
	run := func(spec ...string) (*Script, error) {
		sc := &Script{Name: "mark.scn", In: strings.NewReader(src), Out: io.Discard, Spec: spec}
		return sc, sc.Run()
	}
	sc, err := run("fastpaths")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Marks) != 1 || sc.Marks[0].Name != "second commit" {
		t.Fatalf("marks = %+v, want the one named mark", sc.Marks)
	}
	if d := sc.Marks[0].Counters; d.Get(stats.TxnBegins) != 1 || d.Get(stats.TxnCommits) != 1 || d.Get(stats.TxnAborts) != 0 {
		t.Fatalf("second commit's segment = %v, want one begin and one commit", d)
	}
	var fe *FileError
	if _, err := run(); !errors.As(err, &fe) || fe.Line != 11 {
		t.Fatalf("without fastpaths: got %v, want a failure at line 11", err)
	}
}
