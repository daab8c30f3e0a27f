package dht

import "testing"

// FuzzRangeOwner checks the invariants of the shared ownership function on
// arbitrary (key, machines, keys) triples, boundary keys included: the owner
// is always a valid machine index, ownership is monotone in the key, every
// in-range key's owner actually owns a non-empty contiguous range containing
// the key, no machine's range is empty when keys >= machines, and keys at or
// beyond the keyspace clamp to the last machine.
func FuzzRangeOwner(f *testing.F) {
	f.Add(uint64(0), 4, 100)
	f.Add(uint64(99), 4, 100)
	f.Add(uint64(100), 4, 100)   // first out-of-range key
	f.Add(uint64(1)<<63, 7, 123) // far out of range
	f.Add(uint64(24), 5, 25)
	f.Add(uint64(0), 1, 1)
	f.Add(uint64(3), 8, 3)   // more machines than keys
	f.Add(uint64(11), 8, 12) // machines does not divide keys (old empty tail)
	f.Fuzz(func(t *testing.T, key uint64, machines, keys int) {
		if machines > 1<<12 {
			machines = machines % (1 << 12)
		}
		owner := RangeOwner(key, machines, keys)
		if machines <= 1 || keys <= 0 {
			if owner != 0 {
				t.Fatalf("degenerate partition: owner(%d, %d, %d) = %d, want 0", key, machines, keys, owner)
			}
			return
		}
		if owner < 0 || owner >= machines {
			t.Fatalf("owner(%d, %d, %d) = %d out of [0, %d)", key, machines, keys, owner, machines)
		}
		if key >= uint64(keys) {
			if owner != machines-1 {
				t.Fatalf("out-of-range key %d: owner %d, want last machine %d", key, owner, machines-1)
			}
			return
		}
		// Monotone: the next key's owner never decreases.
		if next := RangeOwner(key+1, machines, keys); next < owner {
			t.Fatalf("ownership not monotone: owner(%d)=%d > owner(%d)=%d", key, owner, key+1, next)
		}
		// The owner's range [start, end) is non-empty and contains the key.
		start := RangeOwnerStart(owner, machines, keys)
		end := RangeOwnerStart(owner+1, machines, keys)
		if start >= end {
			t.Fatalf("key %d assigned to machine %d with empty range [%d, %d)", key, owner, start, end)
		}
		if int(key) < start || int(key) >= end {
			t.Fatalf("key %d outside its owner %d's range [%d, %d)", key, owner, start, end)
		}
		// Balanced split: no machine owns an empty range when keys >= machines,
		// and range sizes differ by at most one.
		if keys >= machines {
			if sz := end - start; sz < keys/machines || sz > keys/machines+1 {
				t.Fatalf("machine %d owns %d keys, want %d or %d", owner, sz, keys/machines, keys/machines+1)
			}
		}
	})
}

// FuzzOwnerAffinePlacement checks that the owner-affine placement is
// internally consistent on arbitrary keys: ShardFor stays in range, a key's
// shard is co-located with the key's owner (when there are enough shards),
// MachineFor never names a machine outside the pool, and a non-positive
// keyspace degrades to hashing with no co-location at all.
func FuzzOwnerAffinePlacement(f *testing.F) {
	f.Add(uint64(0), 4, 100, 16)
	f.Add(uint64(99), 4, 100, 16)
	f.Add(uint64(100), 4, 100, 2) // fewer shards than machines: degrades to hashing
	f.Add(uint64(7), 3, 10, 9)
	f.Add(uint64(7), 3, 0, 9) // zero keyspace: degrades to hashing
	f.Add(uint64(1)<<40, 6, 1000, 24)
	f.Fuzz(func(t *testing.T, key uint64, machines, keys, shards int) {
		if machines > 1<<10 {
			machines = machines % (1 << 10)
		}
		if shards <= 0 || shards > 1<<12 {
			shards = 1 + (abs(shards) % (1 << 12))
		}
		p := OwnerAffine(machines, keys)
		shard := p.ShardFor(key, shards)
		if shard < 0 || shard >= shards {
			t.Fatalf("ShardFor(%d, %d) = %d out of range", key, shards, shard)
		}
		if machines < 1 {
			machines = 1 // OwnerAffine clamps internally
		}
		m := p.MachineFor(shard, shards)
		if m < -1 || m >= machines {
			t.Fatalf("MachineFor(%d, %d) = %d out of range", shard, shards, m)
		}
		if keys <= 0 {
			// Degenerate keyspace: HashRandom semantics, no false co-location.
			if m != -1 {
				t.Fatalf("zero keyspace still reports co-location with machine %d", m)
			}
			if want := HashRandom().ShardFor(key, shards); shard != want {
				t.Fatalf("zero keyspace: shard %d, want hash shard %d", shard, want)
			}
			return
		}
		if shards/machines >= 1 {
			// With at least one shard per machine, a key's shard must be
			// co-located with exactly the key's range owner.
			if want := RangeOwner(key, machines, keys); m != want {
				t.Fatalf("key %d: shard %d co-located with machine %d, owner is %d", key, shard, m, want)
			}
		} else if m != -1 {
			t.Fatalf("degraded placement (shards %d < machines %d) still reports co-location %d", shards, machines, m)
		}
	})
}

// FuzzOwnershipOwnerOf checks the weighted ownership table against a
// linear-scan oracle and against the placement built from it, on arbitrary
// weight vectors: OwnerOf must return exactly the machine whose boundary
// range contains the key, ownership must be monotone and leave no machine
// empty when keys >= machines, the uniform-weight table must agree with
// RangeOwner key-for-key, and OwnershipPlacement's co-location must agree with
// OwnerOf (the partitioner-agreement property the ampc runtime relies on).
func FuzzOwnershipOwnerOf(f *testing.F) {
	f.Add(uint64(0), 4, 16, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint64(7), 4, 16, []byte{200, 1, 1, 1, 1, 1, 1, 200})
	f.Add(uint64(3), 8, 16, []byte{9, 0, 0, 3})        // machines > keys
	f.Add(uint64(1)<<50, 3, 12, []byte{0, 0, 0, 0, 5}) // out-of-range key
	f.Fuzz(func(t *testing.T, key uint64, machines, shards int, raw []byte) {
		if machines <= 0 || machines > 1<<8 {
			machines = 1 + (abs(machines) % (1 << 8))
		}
		if shards <= 0 || shards > 1<<10 {
			shards = 1 + (abs(shards) % (1 << 10))
		}
		weights := make([]int, len(raw))
		for i, b := range raw {
			weights[i] = int(b)
		}
		keys := len(weights)
		own := NewOwnership(machines, weights)
		if own.Machines() != machines || own.Keys() != keys {
			t.Fatalf("table dims %d/%d, want %d/%d", own.Machines(), own.Keys(), machines, keys)
		}

		owner := own.OwnerOf(key)
		if machines == 1 || keys == 0 {
			if owner != 0 {
				t.Fatalf("degenerate table: OwnerOf(%d) = %d, want 0", key, owner)
			}
		} else if key >= uint64(keys) {
			if owner != machines-1 {
				t.Fatalf("out-of-range key %d: owner %d, want %d", key, owner, machines-1)
			}
		} else {
			// Linear-scan oracle over the boundary ranges.
			want := -1
			for m := 0; m < machines; m++ {
				lo, hi := own.Range(m)
				if int(key) >= lo && int(key) < hi {
					want = m
					break
				}
			}
			if want == -1 {
				t.Fatalf("key %d in no machine's range", key)
			}
			if owner != want {
				t.Fatalf("OwnerOf(%d) = %d, oracle says %d", key, owner, want)
			}
		}

		// Boundaries partition [0, keys) monotonically, with no empty range
		// when keys >= machines.
		prevHi := 0
		for m := 0; m < machines; m++ {
			lo, hi := own.Range(m)
			if lo != prevHi || hi < lo {
				t.Fatalf("machine %d range [%d, %d) does not continue at %d", m, lo, hi, prevHi)
			}
			if keys >= machines && lo == hi {
				t.Fatalf("machine %d owns no keys (%d keys over %d machines)", m, keys, machines)
			}
			prevHi = hi
		}
		if prevHi != keys {
			t.Fatalf("ranges end at %d, want %d", prevHi, keys)
		}

		// Placement agreement: a key's shard is co-located with OwnerOf(key)
		// whenever there is at least one shard per machine.
		p := OwnershipPlacement(own)
		shard := p.ShardFor(key, shards)
		if shard < 0 || shard >= shards {
			t.Fatalf("ShardFor(%d, %d) = %d out of range", key, shards, shard)
		}
		m := p.MachineFor(shard, shards)
		if keys == 0 {
			if m != -1 {
				t.Fatalf("zero-keyspace table reports co-location %d", m)
			}
		} else if shards/machines >= 1 {
			if m != owner {
				t.Fatalf("key %d: shard co-located with %d, OwnerOf says %d", key, m, owner)
			}
		} else if m != -1 {
			t.Fatalf("degraded placement still reports co-location %d", m)
		}

		// Uniform weights reduce to the balanced range split of RangeOwner.
		uniform := RangeOwnership(machines, keys)
		if got, want := uniform.OwnerOf(key), RangeOwner(key, machines, keys); got != want {
			t.Fatalf("RangeOwnership.OwnerOf(%d) = %d, RangeOwner = %d", key, got, want)
		}
	})
}

func abs(x int) int {
	if x < 0 {
		if x == -x {
			return 0 // math.MinInt
		}
		return -x
	}
	return x
}

// FuzzMemTable drives the mem engine's slot table against a Go map with an
// op stream decoded from the fuzz input — insert, overwrite, delete,
// reinsert, reserve, over a key universe small enough to collide and to
// churn tombstones, key 0 included — and checks after every op that set and
// del report the ref they replaced, that get agrees for every key of the
// universe, that the live count matches, and that the probe bound holds
// (an empty slot always exists).
func FuzzMemTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 0, 2, 0})
	f.Add([]byte{3, 200, 0, 5, 0, 6, 0, 7, 1, 5, 0, 5, 2, 9})
	grow := make([]byte, 0, 600)
	for k := byte(0); k < 200; k++ {
		grow = append(grow, 0, k, 1, k/2) // insert k, delete k/2: growth through tombstones
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var table memTable
		model := make(map[uint64]uint64)
		// Keys spread like shard keys do (an arithmetic progression) plus
		// the extremes.
		keyOf := func(b byte) uint64 {
			switch b {
			case 254:
				return 1 << 63
			case 255:
				return ^uint64(0)
			}
			return uint64(b) * 8
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, key := ops[i]%4, keyOf(ops[i+1])
			switch op {
			case 0, 2: // insert or overwrite
				ref := uint64(i)<<refChunkShift | uint64(op+2)
				if old := table.set(key, ref); old != model[key] {
					t.Fatalf("op %d: set(%d) replaced %#x, model had %#x", i, key, old, model[key])
				}
				model[key] = ref
			case 1:
				if old := table.del(key); old != model[key] {
					t.Fatalf("op %d: del(%d) returned %#x, model had %#x", i, key, old, model[key])
				}
				delete(model, key)
			case 3:
				table.reserve(int(ops[i+1]))
			}
			if table.live != len(model) {
				t.Fatalf("op %d: live = %d, model holds %d", i, table.live, len(model))
			}
			if table.used < table.live || table.used*tableLoadDenom > len(table.slots)*tableLoadNum {
				t.Fatalf("op %d: used %d, live %d of %d slots breaks the load bound", i, table.used, table.live, len(table.slots))
			}
			for b := 0; b < 256; b++ {
				if k := keyOf(byte(b)); table.get(k) != model[k] {
					t.Fatalf("op %d: get(%d) = %#x, model %#x", i, k, table.get(k), model[k])
				}
			}
		}
		clone := table.clone()
		for k, ref := range model {
			if clone.get(k) != ref {
				t.Fatalf("clone lost key %d", k)
			}
		}
		if len(table.slots) > 0 && len(clone.slots) > 0 && &clone.slots[0] == &table.slots[0] {
			t.Fatal("clone shares the slot array")
		}
	})
}
