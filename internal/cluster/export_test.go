package cluster

import "repro/internal/lockmgr"

// LockCacheGroups reports how many lock groups have coverage cached at
// this (requesting) site.
func (s *Site) LockCacheGroups() int {
	k := s.kernel()
	k.cacheMu.Lock()
	defer k.cacheMu.Unlock()
	groups := map[lockmgr.Holder]bool{}
	for _, c := range k.lockCache {
		groups[c.group] = true
	}
	return len(groups)
}

// Stall makes every handler of op at this site run wait first - after the
// request is bound to the incarnation that received it, before the handler
// body: a test's way to park a request across whatever it does meanwhile.
// A nil wait removes the stall.
func (s *Site) Stall(op string, wait func()) {
	if wait == nil {
		s.stall.Store(nil)
		return
	}
	hook := func(got string) {
		if got == op {
			wait()
		}
	}
	s.stall.Store(&hook)
}

// LeaseCached reports whether this (requesting) site caches a lease on
// the file.
func (s *Site) LeaseCached(fileID string) bool {
	k := s.kernel()
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	return k.leases[fileID] != nil
}
