package dht

import "math/bits"

// The mem engine's storage: a flat index over an append-only arena.
//
// A shard's values live in an arena of byte chunks that are only ever
// appended to, and its keys in an open-addressing table of 16-byte slots
// {key, ref} whose ref packs where the value sits in the arena.  Neither
// holds a pointer per entry: a probe touches one cache line (four slots)
// where a Go map touched three (control word, key, value slice header), a
// value costs no heap object, and the garbage collector has nothing to scan
// but the short list of chunks.

// A slot's ref is refEmpty (never used), refDeleted (a tombstone: probes
// continue past it) or a packed arena reference, which is always >=
// 1<<refChunkShift because the chunk index is stored plus one.  Presence
// therefore lives in the ref alone: key 0 and zero-length values are
// ordinary entries.
const (
	refEmpty   = 0
	refDeleted = 1

	// A packed ref, low to high: 18 bits of length, 18 bits of offset, the
	// dedicated flag, then the chunk index plus one.  Offset and length
	// address a value inside a shared chunk (at most chunkMax bytes); a
	// dedicated chunk's value is the whole chunk and needs neither.
	refFieldBits  = 18
	refFieldMask  = 1<<refFieldBits - 1
	refDedicated  = 1 << (2 * refFieldBits)
	refChunkShift = 2*refFieldBits + 1
)

const (
	chunkMin      = 4 << 10           // first shared chunk of a shard
	chunkMax      = 1 << refFieldBits // 256 KB: shared chunks double up to this
	chunkValueMax = chunkMax / 4      // larger values get a chunk of their own
	compactSlack  = 1 << 20           // dead arena bytes tolerated beyond the live bytes

	tableMinSlots  = 8
	tableLoadNum   = 3 // a table rehashes once used slots exceed 3/4
	tableLoadDenom = 4
)

// memSlot is one table entry.  Four share a cache line.
type memSlot struct {
	key uint64
	ref uint64
}

// memTable is an open-addressing (linear probing) index from key to arena
// ref.  The zero value is an empty table that allocates on first insert.
type memTable struct {
	slots []memSlot
	live  int // slots holding a value
	used  int // live slots plus tombstones: what bounds a probe sequence
	hint  int // expected number of keys (reserve); sizes the next allocation
}

// slotIndex maps key onto [0, n): Fibonacci hashing for the spread (shard
// keys are typically arithmetic progressions of vertex ids), then the high
// half of a 64x64 multiply instead of a modulo, so n need not be a power of
// two and a table can be sized to its reservation exactly.
func slotIndex(key, n uint64) uint64 {
	hi, _ := bits.Mul64(fibHash(key), n)
	return hi
}

// slotsFor returns the slot count that holds keys entries within the load
// bound.
func slotsFor(keys int) int {
	n := keys*tableLoadDenom/tableLoadNum + 1
	if n < tableMinSlots {
		n = tableMinSlots
	}
	return n
}

// reserve records that the table is expected to hold about keys entries.
// It allocates nothing: the hint sizes the next (usually the first) slot
// array, so a table filled to its reservation never rehashes.
func (t *memTable) reserve(keys int) {
	if keys > t.hint {
		t.hint = keys
	}
}

// get returns the ref stored under key, or refEmpty when it is absent.
func (t *memTable) get(key uint64) uint64 {
	n := uint64(len(t.slots))
	if n == 0 {
		return refEmpty
	}
	for i := slotIndex(key, n); ; {
		s := &t.slots[i]
		if s.ref == refEmpty {
			return refEmpty
		}
		if s.key == key && s.ref != refDeleted {
			return s.ref
		}
		if i++; i == n {
			i = 0
		}
	}
}

// set stores ref under key and returns the ref it replaced (refEmpty for a
// new key).  A new key reuses the first tombstone of its probe sequence.
func (t *memTable) set(key, ref uint64) (old uint64) {
	if (t.used+1)*tableLoadDenom > len(t.slots)*tableLoadNum {
		t.rehash()
	}
	n := uint64(len(t.slots))
	tomb := -1
	for i := slotIndex(key, n); ; {
		s := &t.slots[i]
		switch {
		case s.ref == refEmpty:
			if tomb >= 0 {
				s = &t.slots[tomb]
			} else {
				t.used++
			}
			s.key, s.ref = key, ref
			t.live++
			return refEmpty
		case s.ref == refDeleted:
			if tomb < 0 {
				tomb = int(i)
			}
		case s.key == key:
			old, s.ref = s.ref, ref
			return old
		}
		if i++; i == n {
			i = 0
		}
	}
}

// del removes key, leaving a tombstone, and returns the ref it held
// (refEmpty when the key was absent).
func (t *memTable) del(key uint64) (old uint64) {
	n := uint64(len(t.slots))
	if n == 0 {
		return refEmpty
	}
	for i := slotIndex(key, n); ; {
		s := &t.slots[i]
		if s.ref == refEmpty {
			return refEmpty
		}
		if s.key == key && s.ref != refDeleted {
			old, s.ref = s.ref, refDeleted
			t.live--
			return old
		}
		if i++; i == n {
			i = 0
		}
	}
}

// rehash moves the live entries into a fresh slot array, dropping the
// tombstones.  The array doubles when live entries (not tombstones) filled
// it, and is never smaller than the reservation asks for.
func (t *memTable) rehash() {
	n := len(t.slots)
	if (t.live+1)*tableLoadDenom*2 > n*tableLoadNum {
		n *= 2
	}
	if want := slotsFor(t.hint); n < want {
		n = want
	}
	old := t.slots
	t.slots = make([]memSlot, n)
	t.used = t.live
	for _, s := range old {
		if s.ref > refDeleted {
			t.place(s)
		}
	}
}

// place inserts a slot known to be absent into a table known to have room.
func (t *memTable) place(s memSlot) {
	n := uint64(len(t.slots))
	i := slotIndex(s.key, n)
	for t.slots[i].ref != refEmpty {
		if i++; i == n {
			i = 0
		}
	}
	t.slots[i] = s
}

// clone returns a copy sharing nothing with t: what a copy-on-write mutation
// of a published table works on.
func (t *memTable) clone() memTable {
	c := *t
	c.slots = append([]memSlot(nil), t.slots...)
	return c
}

// arena is a shard's value bytes: chunks that are appended to and never
// moved, rewritten or recycled, so a slice handed to a reader stays valid
// and unchanged for as long as the reader keeps it.
type arena struct {
	chunks   [][]byte
	cur      int   // index of the shared chunk being filled
	curCap   int   // its capacity; 0 before the first shared chunk
	fill     int   // bytes used in chunks[cur]
	nextCap  int   // capacity of the next shared chunk
	capBytes int64 // total capacity of all chunks
}

// put copies value into the arena as one record and returns its packed ref.
func (a *arena) put(value []byte) uint64 {
	n := len(value)
	if n == 0 {
		return 1 << refChunkShift // decodes to nil without touching a chunk
	}
	if n > chunkValueMax {
		own := make([]byte, n)
		copy(own, value)
		a.chunks = append(a.chunks, own)
		a.capBytes += int64(n)
		return uint64(len(a.chunks))<<refChunkShift | refDedicated
	}
	if a.fill+n > a.curCap {
		a.grow(n)
	}
	off := a.fill
	copy(a.chunks[a.cur][off:], value)
	a.fill += n
	return uint64(a.cur+1)<<refChunkShift | uint64(off)<<refFieldBits | uint64(n)
}

// grow opens a new shared chunk holding at least n bytes.  Capacities double
// from chunkMin to chunkMax, so a store of a few small values costs a few
// kilobytes per shard, not a quarter megabyte.
func (a *arena) grow(n int) {
	if a.nextCap == 0 {
		a.nextCap = chunkMin
	}
	for a.nextCap < n {
		a.nextCap *= 2
	}
	a.chunks = append(a.chunks, make([]byte, a.nextCap))
	a.cur, a.curCap, a.fill = len(a.chunks)-1, a.nextCap, 0
	a.capBytes += int64(a.nextCap)
	if a.nextCap < chunkMax {
		a.nextCap *= 2
	}
}

// refLen returns the length of the value ref addresses without touching it.
func refLen(chunks [][]byte, ref uint64) int {
	if ref&refDedicated != 0 {
		return len(chunks[ref>>refChunkShift-1])
	}
	return int(ref & refFieldMask)
}

// refBytes returns the value ref addresses: a capacity-clamped slice into
// the arena (nil for a zero-length value, as a map of copied values held).
func refBytes(chunks [][]byte, ref uint64) []byte {
	if ref&refDedicated != 0 {
		return chunks[ref>>refChunkShift-1]
	}
	n := ref & refFieldMask
	if n == 0 {
		return nil
	}
	off := ref >> refFieldBits & refFieldMask
	return chunks[ref>>refChunkShift-1][off : off+n : off+n]
}
