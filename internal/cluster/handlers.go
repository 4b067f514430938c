package cluster

import (
	"repro/internal/simnet"
	"repro/internal/tpc"
)

// handle installs the kernel's handler for one message op - the only place
// one is installed.  A request is bound, at receipt, to the incarnation
// live then (a dead one replies nothing), and fn can reach no other.
// A goroutine cannot be killed, so a handler parked across a crash - on a
// disk force, a mutex, a nested call - wakes up and runs on: into tables
// nobody will read again and volume handles Crash fenced, and its reply is
// dropped here, for a dead kernel sends nothing.  To the caller that is a
// lost message: a refusal for a prepare, a retry for an outcome.
func handle[Req, Resp any](s *Site, op string, fn func(*incarnation, simnet.SiteID, Req) (Resp, error)) {
	s.ep.Handle(op, func(from simnet.SiteID, req any) (any, error) {
		k := s.kernel()
		if k.dead.Load() {
			return nil, simnet.ErrNoReply
		}
		if stall := s.stall.Load(); stall != nil {
			(*stall)(op)
		}
		resp, err := fn(k, from, req.(Req))
		if k.dead.Load() {
			return nil, simnet.ErrNoReply
		}
		return resp, err
	})
}

// none is the response of an op that only acknowledges.
type none = struct{}

// act adapts a handler that neither answers nor cares who asked.
func act[Req any](fn func(*incarnation, Req) error) func(*incarnation, simnet.SiteID, Req) (none, error) {
	return func(k *incarnation, _ simnet.SiteID, req Req) (none, error) { return none{}, fn(k, req) }
}

// ask adapts a handler that does not care who asked.
func ask[Req, Resp any](fn func(*incarnation, Req) (Resp, error)) func(*incarnation, simnet.SiteID, Req) (Resp, error) {
	return func(k *incarnation, _ simnet.SiteID, req Req) (Resp, error) { return fn(k, req) }
}

// voted adapts a first-phase handler to the fast-path ops' response.
func voted(fn func(*incarnation, prepareReq) (tpc.Vote, error)) func(*incarnation, simnet.SiteID, prepareReq) (prepareResp, error) {
	return func(k *incarnation, _ simnet.SiteID, req prepareReq) (prepareResp, error) {
		v, err := fn(k, req)
		return prepareResp{Vote: v}, err
	}
}

// registerHandlers installs every kernel message handler for the site.
func (s *Site) registerHandlers() {
	// read, write and lock keep the sender's identity: the lease protocol
	// needs to know which site is asking (a site's own leases never block
	// it, and leases are only granted to remote requesters).  So does
	// owneradopt: the sender and its MoveID name the move in the catalog.
	handle(s, "create", act((*incarnation).handleCreate))
	handle(s, "open", ask((*incarnation).handleOpen))
	handle(s, "close", act((*incarnation).handleClose))
	handle(s, "sync", act((*incarnation).handleSync))
	handle(s, "stat", ask((*incarnation).handleStat))
	handle(s, "read", (*incarnation).handleRead)
	handle(s, "write", (*incarnation).handleWrite)
	handle(s, "lock", (*incarnation).handleLock)
	handle(s, "leaseRevoke", act((*incarnation).handleLeaseRevoke))
	handle(s, "unlock", ask((*incarnation).handleUnlock))
	handle(s, "list", ask((*incarnation).handleList))
	handle(s, "remove", act((*incarnation).handleRemove))
	handle(s, "forkproc", act((*incarnation).handleFork))
	handle(s, "adoptproc", act((*incarnation).handleAdopt))
	handle(s, "mergefl", act((*incarnation).handleMergeFL))
	handle(s, "childmoved", act((*incarnation).handleChildMoved))
	handle(s, "whereis", ask((*incarnation).handleWhereis))
	handle(s, "replsync", act((*incarnation).handleReplSync))
	handle(s, "replupdating", act((*incarnation).handleReplUpdating))
	handle(s, "replpull", act((*incarnation).handleReplPull))
	handle(s, "replremove", act((*incarnation).handleReplRemove))
	handle(s, "owneradopt", (*incarnation).handleOwnerAdopt)
	handle(s, "coordcommit", act((*incarnation).handleCoordCommit))
	// The classic "prepare" keeps its empty response so fast-paths-off
	// runs are wire-identical.
	handle(s, "prepare", act((*incarnation).handlePrepare))
	handle(s, "preparev", voted((*incarnation).prepare))
	handle(s, "prepareCommit", voted((*incarnation).handlePrepareCommit))
	handle(s, "commit2", act((*incarnation).handleCommit2))
	handle(s, "abortTxn", act((*incarnation).handleAbortTxn))
	handle(s, "status", ask((*incarnation).handleStatus))
}
