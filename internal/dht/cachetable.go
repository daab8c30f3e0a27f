package dht

import (
	"sync"
	"sync/atomic"
)

// CacheTable is an insert-only open-addressing (linear probing) table from
// uint64 keys to values that never change once inserted: the one table under
// Cache and under the search algorithms' per-machine vertex and edge caches.
// It is the mem engine's slot table (memTable) made safe for a machine's
// threads to share:
//
//   - A read takes no lock: one atomic load of the slot array, then one
//     atomic load of each probed slot's key word.
//   - An insert takes the table's mutex, writes the value into an empty slot
//     and then publishes the slot by storing its key word, so a reader that
//     sees the key sees the value.  A key already present keeps its value:
//     the first insert wins, which is right because every filler of a key
//     computes the same value.
//   - Growth and Reset build a fresh slot array under the mutex and swap it
//     in; readers still probing the old array see a consistent, complete
//     snapshot.
//
// A slot is one key word plus the value, so the table costs 8 bytes per
// slot beyond the values themselves.  The zero value is an empty table that
// allocates on first insert.
type CacheTable[V any] struct {
	mu   sync.Mutex                    // serializes inserts and swaps
	cur  atomic.Pointer[cacheSlots[V]] // nil until the first insert
	hint int                           // expected keys (Reserve): sizes the first slot array
	// top holds the value of key ^uint64(0), the one key whose key word
	// would be the empty mark.
	top atomic.Pointer[V]
}

// A slot array is cut into chunks of 1024 slots — 32 KB with a []byte
// value, the heap's largest small size class — so that no table is one
// large object.  A cache of a 200k-key store in one array is a
// multi-megabyte allocation made and dropped by every job, and those left
// the process's peak resident size tens of megabytes above what Go maps
// (which also grow in small pieces) needed; chunks are reused like any
// small object.
const (
	cacheChunkShift = 10
	cacheChunkSlots = 1 << cacheChunkShift
	cacheChunkMask  = cacheChunkSlots - 1
)

// cacheSlots is one published slot array of n slots, cut into chunks (all
// full but the last; a table of fewer than 1024 slots is one short chunk).
type cacheSlots[V any] struct {
	chunks [][]cacheSlot[V]
	n      uint64
	used   int // occupied slots; written under CacheTable.mu
}

func newCacheSlots[V any](n int) *cacheSlots[V] {
	tab := &cacheSlots[V]{chunks: make([][]cacheSlot[V], (n+cacheChunkMask)>>cacheChunkShift), n: uint64(n)}
	for c := range tab.chunks {
		tab.chunks[c] = make([]cacheSlot[V], min(n-c<<cacheChunkShift, cacheChunkSlots))
	}
	return tab
}

// slot returns slot i.
func (tab *cacheSlots[V]) slot(i uint64) *cacheSlot[V] {
	return &tab.chunks[i>>cacheChunkShift][i&cacheChunkMask]
}

// cacheSlot is one table entry.  word is the key plus one, 0 while the slot
// is empty; val is written once, before word is published.
type cacheSlot[V any] struct {
	word atomic.Uint64
	val  V
}

// Reserve records that the table is expected to hold about keys entries.
// It allocates nothing: the hint sizes the first slot array, so a table
// filled to its reservation never grows.
func (t *CacheTable[V]) Reserve(keys int) {
	t.mu.Lock()
	if keys > t.hint {
		t.hint = keys
	}
	t.mu.Unlock()
}

// Get returns the value stored under key and whether there is one.
func (t *CacheTable[V]) Get(key uint64) (v V, ok bool) {
	w := key + 1
	if w == 0 {
		if p := t.top.Load(); p != nil {
			return *p, true
		}
		return v, false
	}
	tab := t.cur.Load()
	if tab == nil {
		return v, false
	}
	n := tab.n
	for i := slotIndex(key, n); ; {
		s := tab.slot(i)
		switch s.word.Load() {
		case w:
			return s.val, true
		case 0:
			return v, false
		}
		if i++; i == n {
			i = 0
		}
	}
}

// Insert stores v under key unless key already holds a value.
func (t *CacheTable[V]) Insert(key uint64, v V) {
	t.mu.Lock()
	t.insert(key, v)
	t.mu.Unlock()
}

// InsertEach is Insert for every (key, value) that at(i) returns, i in
// [0, n), under one acquisition of the mutex; at must not use the table.
func (t *CacheTable[V]) InsertEach(n int, at func(i int) (uint64, V)) {
	t.mu.Lock()
	for i := 0; i < n; i++ {
		t.insert(at(i))
	}
	t.mu.Unlock()
}

// insert is Insert with t.mu held.
func (t *CacheTable[V]) insert(key uint64, v V) {
	w := key + 1
	if w == 0 {
		if t.top.Load() == nil {
			p := new(V)
			*p = v
			t.top.Store(p)
		}
		return
	}
	tab := t.cur.Load()
	if tab == nil || uint64(tab.used+1)*tableLoadDenom > tab.n*tableLoadNum {
		tab = t.grow(tab)
	}
	n := tab.n
	for i := slotIndex(key, n); ; {
		s := tab.slot(i)
		switch s.word.Load() {
		case w:
			return
		case 0:
			s.val = v
			s.word.Store(w)
			tab.used++
			return
		}
		if i++; i == n {
			i = 0
		}
	}
}

// grow publishes a copy of old (nil: an empty table) with twice its slots,
// and never fewer than the reservation asks for, and returns it.  t.mu is
// held.
func (t *CacheTable[V]) grow(old *cacheSlots[V]) *cacheSlots[V] {
	n := slotsFor(t.hint)
	if old != nil && 2*int(old.n) > n {
		n = 2 * int(old.n)
	}
	tab := newCacheSlots[V](n)
	if old != nil {
		for _, chunk := range old.chunks {
			for i := range chunk {
				s := &chunk[i]
				w := s.word.Load()
				if w == 0 {
					continue
				}
				j := slotIndex(w-1, tab.n)
				for tab.slot(j).word.Load() != 0 {
					if j++; j == tab.n {
						j = 0
					}
				}
				d := tab.slot(j)
				d.val = s.val
				d.word.Store(w)
				tab.used++
			}
		}
	}
	t.cur.Store(tab)
	return tab
}

// Reset drops every key.  The next insert allocates afresh at the
// reservation.
func (t *CacheTable[V]) Reset() {
	t.mu.Lock()
	t.cur.Store(nil)
	t.top.Store(nil)
	t.mu.Unlock()
}

// Len returns the number of keys held.
func (t *CacheTable[V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	if tab := t.cur.Load(); tab != nil {
		n = tab.used
	}
	if t.top.Load() != nil {
		n++
	}
	return n
}
