package ampc

// LiveStores reports, to the tests of this directory, how many stores, cache
// sets and fence entries the session currently holds.
func (s *Session) LiveStores() (stores, caches, fences int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stores), len(s.caches), len(s.cacheFence)
}

// DiskBase is the session's private parent directory of disk-backend stores.
func (s *Session) DiskBase() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diskBase
}
