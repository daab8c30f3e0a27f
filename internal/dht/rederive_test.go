package dht

import "testing"

// TestRederiveBoundariesShiftsTowardLoad checks the direction of the
// adaptation: a machine observed to carry most of the load must end up
// owning fewer keys (its per-key cost is higher, so the prefix-sum boundary
// moves toward it), and an unloaded machine absorbs them.
func TestRederiveBoundariesShiftsTowardLoad(t *testing.T) {
	const machines, keys = 4, 400
	base := make([]int, keys)
	for i := range base {
		base[i] = 1
	}
	old := NewOwnership(machines, base)
	lo0, hi0 := old.Range(0)

	// Machine 0 carries 10x the load of the others.
	load := []int64{1000, 100, 100, 100}
	next := RederiveBoundaries(old, load, base)
	if next == old {
		t.Fatal("skewed load did not produce a new table")
	}
	if next.Machines() != machines || next.Keys() != keys {
		t.Fatalf("table dims %d/%d, want %d/%d", next.Machines(), next.Keys(), machines, keys)
	}
	nlo0, nhi0 := next.Range(0)
	if nhi0-nlo0 >= hi0-lo0 {
		t.Fatalf("overloaded machine 0 kept %d keys (had %d); its range should shrink", nhi0-nlo0, hi0-lo0)
	}
}

// TestRederiveBoundariesDegenerateInputs pins the no-op returns: a nil
// table, a load vector of the wrong length, and an all-zero load all return
// the old table unchanged (there is nothing sound to derive from).
func TestRederiveBoundariesDegenerateInputs(t *testing.T) {
	if got := RederiveBoundaries(nil, []int64{1}, nil); got != nil {
		t.Fatalf("nil table: got %v", got)
	}
	base := []int{1, 1, 1, 1}
	old := NewOwnership(2, base)
	if got := RederiveBoundaries(old, []int64{1, 2, 3}, base); got != old {
		t.Fatal("mismatched load length must return the old table")
	}
	if got := RederiveBoundaries(old, []int64{0, 0}, base); got != old {
		t.Fatal("zero observed load must return the old table")
	}
}

// FuzzRederiveBoundaries checks the boundary re-derivation against
// linear-scan oracles on arbitrary base-weight and observed-load vectors:
// the re-derived table keeps the old dimensions, its boundaries are monotone
// and partition the keyspace with no empty range when keys >= machines, and
// the old table comes back exactly when no key of [0, keys) changes owner —
// the test Job.Rebalance uses to skip a migration that would move nothing.
func FuzzRederiveBoundaries(f *testing.F) {
	f.Add(4, []byte{1, 1, 1, 1, 1, 1, 1, 1}, []byte{200, 1, 1, 1})
	f.Add(2, []byte{200, 1, 1, 1, 1, 1, 1, 200}, []byte{1, 200})
	f.Add(8, []byte{9, 0, 3}, []byte{5, 5, 5, 5})   // machines > keys
	f.Add(3, []byte{0, 0, 0, 0}, []byte{0, 0, 0})   // zero base weights
	f.Add(5, []byte{7, 7, 7, 7, 7, 7, 7}, []byte{}) // load shorter than machines
	f.Fuzz(func(t *testing.T, machines int, rawBase, rawLoad []byte) {
		if machines <= 0 || machines > 1<<8 {
			machines = 1 + (abs(machines) % (1 << 8))
		}
		base := make([]int, len(rawBase))
		for i, b := range rawBase {
			base[i] = int(b)
		}
		keys := len(base)
		old := NewOwnership(machines, base)
		load := make([]int64, machines)
		for i := range load {
			if i < len(rawLoad) {
				load[i] = int64(rawLoad[i])
			}
		}

		next := RederiveBoundaries(old, load, base)
		if next.Machines() != machines || next.Keys() != keys {
			t.Fatalf("dims %d/%d, want %d/%d", next.Machines(), next.Keys(), machines, keys)
		}

		// Boundaries partition [0, keys) monotonically with no empty range
		// when keys >= machines (the NewOwnership clamp must survive the
		// re-derivation's cost vector).
		prevHi := 0
		for m := 0; m < machines; m++ {
			lo, hi := next.Range(m)
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

		moved := false
		for k := 0; k < keys; k++ {
			if old.OwnerOf(uint64(k)) != next.OwnerOf(uint64(k)) {
				moved = true
				break
			}
		}
		if (next == old) == moved {
			t.Fatalf("next == old is %v and a key changed owner is %v; want exactly one", next == old, moved)
		}
		// Out-of-range keys clamp to the last machine under both tables.
		if keys > 0 {
			if old.OwnerOf(uint64(keys)) != next.OwnerOf(uint64(keys)) {
				t.Fatalf("out-of-range key changed owner: %d vs %d",
					old.OwnerOf(uint64(keys)), next.OwnerOf(uint64(keys)))
			}
		}
	})
}
