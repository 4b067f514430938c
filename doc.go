// Package repro is a from-scratch Go reproduction of "Transactions and
// Synchronization in a Distributed Operating System" (Weinstein, Page,
// Livezey & Popek, SOSP 1985): the Locus distributed operating system's
// transaction facility with record-level locking.
//
// The public API lives in internal/core (System, Process, File); the
// substrates it is built on - the simulated network, disks, shadow-page
// volume layer, record lock manager, process model, and two-phase commit
// engine - each live in their own internal package.  See DESIGN.md for
// the system inventory and EXPERIMENTS.md for the paper-vs-measured
// results; `locus bench` (cmd/locus) regenerates every table and figure
// of the paper's evaluation, Figure 5 and the footnote 7 and 10 and
// section 5.2 experiments by replaying the scenario files embedded here.
package repro

import "embed"

// PaperScenarios holds testdata/scenarios/paper-*.scn: the experiments
// of the paper's evaluation that are a fixed sequence of words, each
// measured row a named mark (scenario.Script) and each of the paper's
// counts an expect counter line.
//
//go:embed testdata/scenarios/paper-*.scn
var PaperScenarios embed.FS
