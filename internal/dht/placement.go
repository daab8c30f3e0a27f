package dht

// Shard placement.
//
// The paper models every key-value lookup as a uniform remote round trip:
// a machine queries the distributed hash table and pays the transport
// latency (RDMA or TCP/IP) regardless of where the key lives.  In the real
// system, however, shards are processes on the same machines that run the
// computation, so a key can be *co-located* with the machine that owns the
// corresponding work item — and a lookup to a co-located shard is a DRAM
// access, an order of magnitude cheaper than RDMA (§5.1).  A Placement
// policy decides which shard holds each key and which machine, if any, each
// shard is co-located with; the store uses it to classify every operation
// as local or remote for both statistics and latency charging.

// Placement maps keys onto shards and shards onto the machines they are
// co-located with.  Implementations must be pure functions of their inputs
// (the same key always lands on the same shard) and safe for concurrent use.
type Placement interface {
	// Name identifies the policy in reports ("hash", "owner", "weighted").
	Name() string
	// ShardFor returns the shard index of key given shards total shards.
	ShardFor(key uint64, shards int) int
	// MachineFor returns the index of the machine co-located with shard, or
	// -1 when the shard is not co-located with any machine (every access is
	// then remote, the paper's uniform model).
	MachineFor(shard, shards int) int
}

// fibHash spreads sequential vertex identifiers across shards (Fibonacci
// hashing).
func fibHash(key uint64) uint64 {
	return key * 0x9e3779b97f4a7c15
}

// hashRandom is the default policy: keys are hashed uniformly onto shards
// and no shard is co-located with any machine, so every access is a remote
// round trip exactly as in the unmodified model.
type hashRandom struct{}

// HashRandom returns the default placement policy: uniform hashing, no
// machine affinity.
func HashRandom() Placement { return hashRandom{} }

func (hashRandom) Name() string { return "hash" }

func (hashRandom) ShardFor(key uint64, shards int) int {
	return int(fibHash(key) % uint64(shards))
}

func (hashRandom) MachineFor(shard, shards int) int { return -1 }

// OwnerAffine returns a placement that co-locates each key's shard with the
// machine owning the key under a contiguous range partition of [0, keys)
// across machines (see RangeOwner): the OwnershipPlacement of the uniform
// table RangeOwnership(machines, keys), reporting name "owner".  When a
// round's work items are partitioned by the same ownership function, each
// machine's reads and writes of its own keys stay local.  Affinity requires
// shards >= machines; with fewer shards the policy degrades to hashing with
// no co-location.  A non-positive keyspace has no ownership to co-locate by,
// so it falls back to HashRandom semantics outright: with keys <= 0 every
// key would otherwise clamp to machine 0 and silently co-locate the whole
// store with it.
func OwnerAffine(machines, keys int) Placement {
	return OwnershipPlacement(RangeOwnership(machines, keys))
}

// RangeOwner returns the machine owning key under a balanced contiguous
// range partition of the keyspace [0, keys) across machines: with
// base = floor(keys/machines) and rem = keys mod machines, the first rem
// machines own base+1 consecutive keys and the rest own base.  Whenever
// keys >= machines every machine therefore owns at least one key (the old
// ceil-span split left trailing machines empty whenever machines did not
// divide keys, e.g. 12 keys over 8 machines starved machines 6-7); with
// machines > keys the first keys machines own one key each.  Keys at or
// beyond keys clamp to the last machine.  It is the shared ownership
// function of the OwnerAffine placement and of the vertex-ownership round
// partitioners in the ampc package; the two must agree for reads of owned
// keys to stay local.
func RangeOwner(key uint64, machines, keys int) int {
	if machines <= 1 || keys <= 0 {
		return 0
	}
	if key >= uint64(keys) {
		return machines - 1
	}
	if machines >= keys {
		return int(key)
	}
	base := keys / machines
	rem := keys % machines
	split := uint64(rem * (base + 1))
	if key < split {
		return int(key) / (base + 1)
	}
	return rem + int(key-split)/base
}

// RangeOwnerStart returns the first key of machine m's range under the
// balanced contiguous partition of RangeOwner: m*base + min(m, rem), so
// machine m owns [RangeOwnerStart(m), RangeOwnerStart(m+1)).  m <= 0 and an
// empty keyspace start at 0; m >= machines (and every m >= 1 of a
// single-machine partition, which owns the whole keyspace) returns keys,
// keeping the [start, end) contract exact in the degenerate cases.  It is
// the closed-form inverse used by RangeOwnership and by the boundary
// invariants in tests; RangeOwner(RangeOwnerStart(m)) == m whenever the
// machine's range is non-empty.
func RangeOwnerStart(m, machines, keys int) int {
	if keys <= 0 || m <= 0 {
		return 0
	}
	if machines <= 1 || m >= machines {
		return keys
	}
	base := keys / machines
	rem := keys % machines
	extra := m
	if extra > rem {
		extra = rem
	}
	return m*base + extra
}
