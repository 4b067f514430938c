package cluster

// LockCacheGroups reports how many lock groups have coverage cached at
// this (requesting) site.
func (s *Site) LockCacheGroups() int {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	return len(s.lockCache)
}

// StallPrepare re-registers the site's paper-exact "prepare" op so that
// each prepare runs the real handler only after wait returns: a test's way
// to hold a coordinator inside its prepare phase.
func (s *Site) StallPrepare(wait func()) {
	s.ep.Handle("prepare", s.wrap(func(req any) (any, error) {
		wait()
		return nil, s.handlePrepare(req.(prepareReq))
	}))
}
