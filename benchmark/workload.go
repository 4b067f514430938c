package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/vtime"
)

// VAX-750 latencies every workload runs at (costmodel.Vax750): one forced
// disk I/O and one one-way network message.
const (
	diskSyncDelay = 26 * time.Millisecond
	netLatency    = 8 * time.Millisecond
)

// paperExact is the ROADMAP's PaperExact preset: the zero cluster.Config
// apart from the clock and the modelled latencies.
func paperExact(clk vtime.Clock) cluster.Config {
	return cluster.Config{
		Clock:         clk,
		DiskSyncDelay: diskSyncDelay,
		Net:           simnet.Config{Latency: netLatency},
	}
}

// tuned is the ROADMAP's Tuned preset: every optional protocol layer on,
// policy knobs at their defaults.
func tuned(clk vtime.Clock) cluster.Config {
	cfg := paperExact(clk)
	cfg.FastPaths = true
	cfg.LockLeases = true
	cfg.AdaptivePlacement = true
	cfg.GroupCommitMaxDelay = diskSyncDelay
	return cfg
}

// opKind is one call the driver makes into core inside a transaction.
type opKind uint8

const (
	opLockShared opKind = iota
	opLockExclusive
	opRead
	opWrite
)

// op is one generated operation.  Ops are made up front from the seed; the
// system under test sees only these.
type op struct {
	kind opKind
	file uint8  // index into workload.files
	off  uint32 // byte offset of the record
	val  uint64 // payload stamp of a write (see fillRecord); unused otherwise
}

// clientPlan is one client's whole run: txn i executes
// ops[bounds[i]:bounds[i+1]].
type clientPlan struct {
	ops    []op
	bounds []uint32
}

func (cp *clientPlan) endTxn() { cp.bounds = append(cp.bounds, uint32(len(cp.ops))) }

func newClientPlan(txns, opsPerTxn int) *clientPlan {
	return &clientPlan{
		ops:    make([]op, 0, txns*opsPerTxn),
		bounds: make([]uint32, 1, txns+1),
	}
}

// fileSpec is one file created and synced during set-up.
type fileSpec struct {
	path string
	size int
}

// workload describes one closed-loop transaction mix.
type workload struct {
	name string
	// txnsPerSecond freezes the size of a run: a run asked to measure for S
	// seconds executes S*txnsPerSecond transactions, split evenly over the
	// run's windows, so both sides of a comparison do identical work
	// whatever their speed.  The figures were calibrated so that S seconds
	// of work takes about S seconds of wall time on one P at the commit that
	// introduced the benchmark.
	txnsPerSecond int
	sites         int
	preset        func(vtime.Clock) cluster.Config
	presetName    string
	files         []fileSpec
	recSize       int
	// clients are the sites the client processes start on; at most two.
	clients []simnet.SiteID
	// serial drives the clients from one goroutine, alternating turns, so
	// every simulated count is a pure function of the seed.
	serial bool
	// gen builds client c's plan of n transactions.
	gen func(rng *rand.Rand, c, n int) *clientPlan
}

const pageSize = 1024

var workloads = []*workload{
	{
		name: "local_transfer",
		// 1 site, PaperExact: shadow commit, fs log, simdisk, local 2PC and
		// vtime dispatch do all the work and simnet none; the control for
		// network-side changes and where a disk/log/shadow one must show
		txnsPerSecond: 30000,
		sites:         1,
		preset:        paperExact, presetName: "PaperExact",
		files:   []fileSpec{{"v1/accounts", 2 * pageSize}},
		recSize: 8,
		clients: []simnet.SiteID{1, 1},
		gen:     genLocalTransfer,
	},
	{
		name: "remote_2pc",
		// 3 sites, PaperExact, every txn writes at both other sites: simnet
		// Call, vtime park/wake, tpc fan-out, cluster RPC handlers and the
		// requester lock cache dominate; disk work per txn is fixed
		txnsPerSecond: 3000,
		sites:         3,
		preset:        paperExact, presetName: "PaperExact",
		files:   []fileSpec{{"v1/r", 2 * pageSize}, {"v2/r", 2 * pageSize}, {"v3/r", 2 * pageSize}},
		recSize: 8,
		clients: []simnet.SiteID{2, 3},
		gen:     genRemote2PC,
	},
	{
		name: "shared_page_mix",
		// 2 sites, PaperExact, one shared 128-record file, half read-4
		// (Shared) and half update-2 (Exclusive): shared grants on populated
		// lock lists, reader/writer queueing, ReadAt and Fig 4 page
		// differencing
		txnsPerSecond: 7500,
		sites:         2,
		preset:        paperExact, presetName: "PaperExact",
		files:   []fileSpec{{"v1/shared", mixRecords * mixRecSize}},
		recSize: mixRecSize,
		clients: []simnet.SiteID{1, 2},
		gen:     genSharedPageMix,
	},
	{
		name: "skew_tuned",
		// 3 sites, Tuned, Zipfian picks over 32 files, driven serially: the
		// only workload where fast paths, leases, placement and group commit
		// run; an optional-layer change must move this one and nothing else
		txnsPerSecond: 4000,
		sites:         3,
		preset:        tuned, presetName: "Tuned",
		files:   skewFiles(),
		recSize: 8,
		clients: []simnet.SiteID{2, 3},
		serial:  true,
		gen:     genSkewTuned,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stamp draws a non-zero payload stamp, so a written record never equals
// the zero bytes the file was created with.
func stamp(rng *rand.Rand) uint64 { return rng.Uint64() | 1 }

// genLocalTransfer: client c moves a random amount between the two 8-byte
// accounts at the head of its own page (the bench.ConcurrentCommit shape):
// lock both, write both, commit.  The written values are the running
// balances, so the file always holds what a transfer would have left.
func genLocalTransfer(rng *rand.Rand, c, n int) *clientPlan {
	cp := newClientPlan(n, 4)
	from, to := uint32(c*pageSize), uint32(c*pageSize+8)
	balFrom, balTo := uint64(1)<<40, uint64(1)<<40
	for i := 0; i < n; i++ {
		amt := uint64(rng.Intn(1000) + 1)
		balFrom -= amt
		balTo += amt
		cp.ops = append(cp.ops,
			op{kind: opLockExclusive, off: from},
			op{kind: opLockExclusive, off: to},
			op{kind: opWrite, off: from, val: balFrom},
			op{kind: opWrite, off: to, val: balTo})
		cp.endTxn()
	}
	return cp
}

// genRemote2PC: the client at site 2 (c=0) or 3 (c=1) locks and writes one
// record in the file at each of the two other sites, so its own site
// coordinates and both participants are remote.  Records are client-
// private (page c of each file): no lock ever conflicts.
func genRemote2PC(rng *rand.Rand, c, n int) *clientPlan {
	cp := newClientPlan(n, 4)
	home := c + 1 // index of the file at the client's own site
	for i := 0; i < n; i++ {
		for f := 0; f < 3; f++ {
			if f == home {
				continue
			}
			off := uint32(c*pageSize + 8*rng.Intn(pageSize/8))
			cp.ops = append(cp.ops,
				op{kind: opLockExclusive, file: uint8(f), off: off},
				op{kind: opWrite, file: uint8(f), off: off, val: stamp(rng)})
		}
		cp.endTxn()
	}
	return cp
}

const (
	mixRecords = 128
	mixRecSize = 64
)

// genSharedPageMix: exactly half the transactions read four distinct
// random records under Shared locks, half update two records of the
// client's own parity class under Exclusive locks.  Locks are taken in
// ascending record order, so the two clients queue but never deadlock.
// The read/update split is dealt from a shuffled deck, not drawn per
// transaction, so forced I/Os per transaction do not vary with the seed.
func genSharedPageMix(rng *rand.Rand, c, n int) *clientPlan {
	cp := newClientPlan(n, 6)
	isRead := dealShare(rng, n, 0.5)
	for i := 0; i < n; i++ {
		if isRead[i] {
			recs := pickDistinct(rng, 4, mixRecords, func(r int) int { return r })
			for _, r := range recs {
				cp.ops = append(cp.ops, op{kind: opLockShared, off: uint32(r * mixRecSize)})
			}
			for _, r := range recs {
				cp.ops = append(cp.ops, op{kind: opRead, off: uint32(r * mixRecSize)})
			}
		} else {
			recs := pickDistinct(rng, 2, mixRecords/2, func(r int) int { return 2*r + c })
			for _, r := range recs {
				cp.ops = append(cp.ops, op{kind: opLockExclusive, off: uint32(r * mixRecSize)})
			}
			for _, r := range recs {
				cp.ops = append(cp.ops, op{kind: opWrite, off: uint32(r * mixRecSize), val: stamp(rng)})
			}
		}
		cp.endTxn()
	}
	return cp
}

const (
	skewFileCount = 32
	skewZipfS     = 1.2
)

func skewFiles() []fileSpec {
	fs := make([]fileSpec, skewFileCount)
	for i := range fs {
		fs[i] = fileSpec{fmt.Sprintf("v1/f%02d", i), pageSize}
	}
	return fs
}

// genSkewTuned: each transaction is one implicit-lock access to a file
// picked by Zipfian rank; client c's rank order is rotated by 16c so the
// two hot sets are disjoint (the bench.SkewPlacement shape).  Exactly 70%
// of transactions WriteAt one of the client's own 8-byte records, 30%
// ReadAt one.
func genSkewTuned(rng *rand.Rand, c, n int) *clientPlan {
	cp := newClientPlan(n, 1)
	zipf := rand.NewZipf(rng, skewZipfS, 1, skewFileCount-1)
	isRead := dealShare(rng, n, 0.3)
	for i := 0; i < n; i++ {
		file := uint8((int(zipf.Uint64()) + c*skewFileCount/2) % skewFileCount)
		off := uint32(c*pageSize/2 + 8*rng.Intn(16))
		if isRead[i] {
			cp.ops = append(cp.ops, op{kind: opRead, file: file, off: off})
		} else {
			cp.ops = append(cp.ops, op{kind: opWrite, file: file, off: off, val: stamp(rng)})
		}
		cp.endTxn()
	}
	return cp
}

// dealShare returns n flags of which exactly round(share*n) are true, in
// seeded random order.
func dealShare(rng *rand.Rand, n int, share float64) []bool {
	deck := make([]bool, n)
	for i := 0; i < int(share*float64(n)+0.5); i++ {
		deck[i] = true
	}
	rng.Shuffle(n, func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// pickDistinct draws k distinct values of f(0..n-1) and returns them in
// ascending order.
func pickDistinct(rng *rand.Rand, k, n int, f func(int) int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		v := f(rng.Intn(n))
		at := 0
		for at < len(out) && out[at] < v {
			at++
		}
		if at < len(out) && out[at] == v {
			continue
		}
		out = append(out, 0)
		copy(out[at+1:], out[at:])
		out[at] = v
	}
	return out
}

// fillRecord renders a write's payload: the stamp's 8 little-endian bytes
// repeated over the record, so any torn or mixed record is detectable.
func fillRecord(buf []byte, val uint64) {
	for i := range buf {
		buf[i] = byte(val >> (8 * (uint(i) % 8)))
	}
}

// recordStamp reads a record back into its stamp; ok is false if the
// record is not one stamp repeated.
func recordStamp(buf []byte) (val uint64, ok bool) {
	for i := 0; i < 8 && i < len(buf); i++ {
		val |= uint64(buf[i]) << (8 * uint(i))
	}
	for i := range buf {
		if buf[i] != byte(val>>(8*(uint(i)%8))) {
			return val, false
		}
	}
	return val, true
}
