package dht

// Weighted ownership.
//
// The AMPC runtime keeps per-machine load near the O(n^ε) space budget only
// if the keys each machine owns carry comparable amounts of work.  The
// balanced range partition of RangeOwner equalizes key *counts*, but on
// hub-heavy graphs (the CW/HL stand-ins) the work per key is the vertex
// degree, and the machine owning the hubs becomes the straggler of every
// round.  An Ownership table generalizes the contiguous partition to
// per-key weights: machine boundaries are chosen over the prefix sums of
// the weights so that every machine owns a contiguous key range of roughly
// equal total weight — and, whenever keys >= machines, at least one key.
//
// The table is the single source of truth shared by the shard placement
// (OwnershipPlacement) and the ampc round partitioners:
// both sides answer "which machine owns key k" from the same boundaries,
// which is the invariant that keeps a machine's reads and writes of its own
// keys on its co-located shards.  RangeOwner remains the uniform-weight
// fast path: it needs no table and no binary search.

import "sort"

// Ownership is a contiguous partition of the keyspace [0, Keys()) across
// machines, represented by its machine boundaries.  It is immutable and
// safe for concurrent use.
type Ownership struct {
	machines int
	keys     int
	// starts[m] is the first key owned by machine m; starts[machines] ==
	// keys.  Machine m owns the half-open range [starts[m], starts[m+1]),
	// which may be empty only when machines > keys.
	starts []int
	// uniform marks the balanced equal-weight split (RangeOwnership); the
	// placement built over it reports the owner-affine policy's name.
	uniform bool
}

// NewOwnership builds the degree-weighted ownership table for
// len(weights) keys over machines machines.  Boundary m is placed where the
// prefix sum of the weights crosses m/machines of the total weight, then
// clamped so that every machine owns at least one key while keys remain
// (weighted balance never starves a machine of keys).  Non-positive weights
// count as zero.  A nil or empty weights slice yields a zero-keyspace table
// (OwnerOf clamps everything to machine 0, and the placement built from it
// degrades to hashing, exactly like OwnerAffine with keys <= 0).
func NewOwnership(machines int, weights []int) *Ownership {
	if machines < 1 {
		machines = 1
	}
	keys := len(weights)
	own := &Ownership{machines: machines, keys: keys, starts: make([]int, machines+1)}
	own.starts[machines] = keys
	if keys == 0 || machines == 1 {
		return own
	}
	if keys <= machines {
		// One key per machine until the keyspace runs out; weights leave no
		// freedom, and the split matches RangeOwner's machines >= keys case.
		for m := 1; m < machines; m++ {
			if m < keys {
				own.starts[m] = m
			} else {
				own.starts[m] = keys
			}
		}
		return own
	}
	prefix := make([]int64, keys+1)
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		prefix[i+1] = prefix[i] + int64(w)
	}
	total := prefix[keys]
	for m := 1; m < machines; m++ {
		// Smallest cut with prefix[cut] >= total*m/machines, i.e. the first
		// boundary at which machines 0..m-1 have collected their weight share.
		target := total * int64(m)
		cut := sort.Search(keys+1, func(i int) bool {
			return prefix[i]*int64(machines) >= target
		})
		// Keep every machine non-empty: machine m-1 needs at least one key
		// past its own start, and machines m..machines-1 still need one key
		// each.  With keys > machines the two clamps are always compatible
		// (the previous boundary was itself clamped below keys-(machines-m)+1).
		if lo := own.starts[m-1] + 1; cut < lo {
			cut = lo
		}
		if hi := keys - (machines - m); cut > hi {
			cut = hi
		}
		own.starts[m] = cut
	}
	return own
}

// RangeOwnership returns the ownership table of the uniform-weight balanced
// split: the table form of RangeOwner, with OwnerOf agreeing with
// RangeOwner on every key, so the uniform and the weighted partition answer
// through one interface.
func RangeOwnership(machines, keys int) *Ownership {
	if machines < 1 {
		machines = 1
	}
	if keys < 0 {
		keys = 0
	}
	own := &Ownership{machines: machines, keys: keys, starts: make([]int, machines+1), uniform: true}
	for m := 1; m <= machines; m++ {
		own.starts[m] = RangeOwnerStart(m, machines, keys)
	}
	own.starts[machines] = keys
	return own
}

// Machines returns the number of machines the table partitions over.
func (o *Ownership) Machines() int { return o.machines }

// Keys returns the size of the partitioned keyspace.
func (o *Ownership) Keys() int { return o.keys }

// OwnerOf returns the machine owning key: the unique m with
// starts[m] <= key < starts[m+1], found by binary search over the machine
// boundaries.  Keys at or beyond the keyspace clamp to the last machine,
// and a zero-keyspace table clamps everything to machine 0, matching
// RangeOwner's degenerate cases.
func (o *Ownership) OwnerOf(key uint64) int {
	if o.machines <= 1 || o.keys <= 0 {
		return 0
	}
	if key >= uint64(o.keys) {
		return o.machines - 1
	}
	k := int(key)
	// Smallest m whose range ends past key; empty ranges (starts[m] ==
	// starts[m+1]) can never win because their end does not exceed key
	// unless the previous non-empty range's does first.
	return sort.Search(o.machines, func(m int) bool {
		return o.starts[m+1] > k
	})
}

// Range returns machine m's owned key range [lo, hi); lo == hi marks an
// empty range (possible only when machines > keys).
func (o *Ownership) Range(m int) (lo, hi int) {
	return o.starts[m], o.starts[m+1]
}

// ownershipAffine co-locates each key's shard with the machine owning the
// key under an Ownership table.  Machine m is assigned the shard block
// [m·spm, (m+1)·spm) where spm = shards/machines; a key owned by machine m
// is hashed onto one of m's shards.
type ownershipAffine struct {
	own *Ownership
}

// OwnershipPlacement returns a placement that co-locates each key's shard
// with the machine owning the key under the given table.  Affinity requires
// shards >= machines; with fewer shards the policy degrades to hashing with
// no co-location.  A nil or zero-keyspace table falls back to HashRandom
// semantics (no false co-location), like OwnerAffine with keys <= 0.
func OwnershipPlacement(own *Ownership) Placement {
	if own == nil || own.keys <= 0 {
		return HashRandom()
	}
	return ownershipAffine{own: own}
}

func (p ownershipAffine) Name() string {
	if p.own.uniform {
		return "owner"
	}
	return "weighted"
}

func (p ownershipAffine) ShardFor(key uint64, shards int) int {
	spm := shards / p.own.machines
	if spm < 1 {
		return int(fibHash(key) % uint64(shards))
	}
	owner := p.own.OwnerOf(key)
	return owner*spm + int(fibHash(key)%uint64(spm))
}

func (p ownershipAffine) MachineFor(shard, shards int) int {
	spm := shards / p.own.machines
	if spm < 1 {
		return -1
	}
	m := shard / spm
	if m >= p.own.machines {
		// Trailing shards beyond machines*spm are never used by ShardFor.
		return -1
	}
	return m
}
