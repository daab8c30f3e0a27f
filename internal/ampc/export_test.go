package ampc

// LiveStores reports, to the tests of this directory, how many stores and
// cache sets the session currently holds.
func (s *Session) LiveStores() (stores, caches int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stores), len(s.caches)
}

// DiskBase is the session's private parent directory of disk-backend stores.
func (s *Session) DiskBase() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diskBase
}
