package cluster

// LockCacheGroups reports how many lock groups have coverage cached at
// this (requesting) site.
func (s *Site) LockCacheGroups() int {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	return len(s.lockCache)
}
