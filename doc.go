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
// of the paper's evaluation.
package repro
