package ampc

// Streaming search-round execution.
//
// The algorithms' batched rounds drive many suspendable searches (an MIS
// status recursion, a matching proposal walk, a pointer chase) against the
// frozen input table.  Each search is naturally a pull-based iterator: pull
// it and it either completes or names the one record it is missing.  Stream
// composes such iterators into a round body: every cycle it pulls the live
// iterators, deduplicates the keys they suspended on, fetches them as ONE
// shard-grouped batch (readUnique) and pulls again, admitting fresh
// iterators from the backlog as live ones complete.  The lock-step block
// driver this replaces advanced a fixed block of units with an unbounded
// wavefront; the streaming driver bounds the live window, which keeps
// per-machine memory at O(window) suspended searches while preserving the
// batch amortization — with the window covering the whole block the fetch
// cycles are key-for-key identical to the old lock-step schedule.

// Iterator is one resumable unit of work.  Pull advances the unit as far as
// it can with the records it has already been fed: it returns the key of
// the record it is missing (suspended == true) — after which the driver
// fetches the record, hands it to the round's fill function and pulls again
// — or reports completion (suspended == false), after which the driver
// never pulls it again.
type Iterator interface {
	Pull() (key uint64, suspended bool)
}

// PullFunc adapts a closure to the Iterator interface.
type PullFunc func() (uint64, bool)

// Pull implements Iterator.
func (f PullFunc) Pull() (uint64, bool) { return f() }

// Stream drives the iterators to completion against the round's input
// store.  At most window iterators are live at once; window <= 0 means all
// of them (the lock-step-compatible default).  Each cycle pulls every live
// iterator, collects the suspended keys in first-seen order (deduplicated),
// fetches them in one shard-grouped batch and hands each record to fill;
// completed iterators free their slots and the next backlog iterators are
// admitted — and pulled — within the same cycle, so their first missing
// keys join the same batch.
//
// A call allocates its working state once — the live window, the key list,
// the dedupe set, the result slices — and every cycle reuses it, so a fetch
// cycle costs a constant number of allocations (the store's reply), not one
// per key.
func (c *Ctx) Stream(window int, its []Iterator, fill func(key uint64, raw []byte, ok bool) error) error {
	if len(its) == 0 {
		return nil
	}
	if window <= 0 || window > len(its) {
		window = len(its)
	}
	next := 0 // backlog cursor
	cy := streamCycle{live: make([]Iterator, 0, window), need: make([]uint64, 0, window), seen: newKeySet(window)}
	for {
		// The suspended iterators are kept in place: the write index never
		// passes the read index.
		live := cy.live
		cy.live, cy.need = cy.live[:0], cy.need[:0]
		cy.seen.clear()
		for _, it := range live {
			cy.pull(it)
		}
		for len(cy.live) < window && next < len(its) {
			cy.pull(its[next])
			next++
		}
		if len(cy.live) == 0 {
			return nil
		}
		vals, oks, err := c.readUnique(cy.need, &cy.read)
		if err != nil {
			return err
		}
		for i, k := range cy.need {
			if err := fill(k, vals[i], oks[i]); err != nil {
				return err
			}
		}
	}
}

// streamCycle is the working state of one Stream call, reused every cycle:
// the live window, and the distinct keys (at most one per live iterator) the
// cycle's pulls suspended on, in first-seen order, and the slices their
// records come back in.
type streamCycle struct {
	live []Iterator
	need []uint64
	seen *keySet
	read readScratch
}

// pull advances it; an iterator that suspends stays live and its key joins
// the cycle's fetch.
func (cy *streamCycle) pull(it Iterator) {
	key, suspended := it.Pull()
	if !suspended {
		return
	}
	cy.live = append(cy.live, it)
	if cy.seen.add(key) {
		cy.need = append(cy.need, key)
	}
}

// keySet is the set of keys one Stream cycle has seen: open addressing over
// a table sized once for the live window, cleared in O(1) by advancing the
// epoch its slots are stamped with.
type keySet struct {
	slots []keySlot // power-of-two length, at most half full
	shift uint      // 64 - log2(len(slots))
	epoch uint32
}

type keySlot struct {
	key   uint64
	epoch uint32 // the slot is occupied iff this equals the set's epoch
}

// newKeySet returns an empty set with room for capacity keys.
func newKeySet(capacity int) *keySet {
	bits := uint(1)
	for 1<<bits < 2*capacity {
		bits++
	}
	return &keySet{slots: make([]keySlot, 1<<bits), shift: 64 - bits, epoch: 1}
}

// clear empties the set.
func (s *keySet) clear() {
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could read as current
		for i := range s.slots {
			s.slots[i] = keySlot{}
		}
		s.epoch = 1
	}
}

// add inserts key and reports whether it was absent.
func (s *keySet) add(key uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := (key * 0x9E3779B97F4A7C15) >> s.shift; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.epoch != s.epoch {
			sl.key, sl.epoch = key, s.epoch
			return true
		}
		if sl.key == key {
			return false
		}
	}
}
