package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

func testShell(t *testing.T) *shell {
	t.Helper()
	sys, err := scenario.Spec{Volumes: scenario.PerSite(3)}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &shell{sys: sys, procs: map[string]*core.Process{}, files: map[[2]string]*core.File{}}
}

func runLines(t *testing.T, sh *shell, lines ...string) {
	t.Helper()
	for _, line := range lines {
		if err := sh.exec(strings.Fields(line)); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
}

func TestShellTransactionSession(t *testing.T) {
	sh := testShell(t)
	runLines(t, sh,
		"proc p1 1",
		"begin p1",
		"write p1 v1/f 0 hello world",
		"end p1",
		"read p1 v1/f 0 11",
		"stats",
	)
	// Crash and recover; a fresh process reads the data back.
	runLines(t, sh, "crash 1", "restart 1", "proc p2 2", "read p2 v1/f 0 11")
}

func TestShellLockAndDeadlockCommands(t *testing.T) {
	sh := testShell(t)
	runLines(t, sh,
		"proc a 1", "proc b 2",
		"write a v1/r 0 xxxxxxxxxxxxxxxx",
		"sync a v1/r",
		"begin a", "begin b",
		"lock a v1/r 0 4 x",
		"lock b v1/r 8 4 x",
		"edges",
		"deadlocks",
		"unlock a v1/r 0 4",
		"abort a", "abort b",
	)
}

func TestShellProcessCommands(t *testing.T) {
	sh := testShell(t)
	runLines(t, sh,
		"proc p 1",
		"begin p",
		"fork p c 2",
		"write c v2/cf 0 from-child",
		"exitproc c",
		"end p",
		"migrate p 3",
		"partition 2",
		"heal",
	)
}

func TestShellErrors(t *testing.T) {
	sh := testShell(t)
	if err := sh.exec([]string{"nonsense"}); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := sh.exec([]string{"begin", "ghost"}); err == nil {
		t.Fatal("begin on missing process accepted")
	}
	if err := sh.exec([]string{"proc", "p"}); err == nil {
		t.Fatal("short proc accepted")
	}
	if err := sh.exec([]string{"crash", "notanumber"}); err == nil {
		t.Fatal("bad site accepted")
	}
	if err := sh.exec(nil); err != nil {
		t.Fatal("empty line errored")
	}
	runLines(t, sh, "help")
}
