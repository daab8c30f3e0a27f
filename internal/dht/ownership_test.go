package dht

import "testing"

// TestRangeOwnerGridNoEmptyRanges is the regression test for the empty-tail
// bug: under the old ceil-span split, machines ∤ keys could leave trailing
// machines owning zero keys (keys=12, machines=8 starved machines 6-7).
// The balanced split must give every machine a non-empty contiguous range
// whenever keys >= machines, with sizes differing by at most one, across an
// uneven (machines, keys) grid including machines > keys — and OwnerAffine
// must co-locate every key with exactly its RangeOwner in lock-step.
func TestRangeOwnerGridNoEmptyRanges(t *testing.T) {
	for _, machines := range []int{1, 2, 3, 5, 7, 8, 13, 64} {
		for _, keys := range []int{0, 1, 2, 3, 7, 12, 25, 100, 101, 255} {
			counts := make(map[int]int)
			prev := 0
			for k := 0; k < keys; k++ {
				owner := RangeOwner(uint64(k), machines, keys)
				if owner < 0 || owner >= machines {
					t.Fatalf("m=%d keys=%d: owner(%d) = %d out of range", machines, keys, k, owner)
				}
				if owner < prev {
					t.Fatalf("m=%d keys=%d: ownership not monotone at key %d", machines, keys, k)
				}
				if owner > prev+1 {
					t.Fatalf("m=%d keys=%d: ownership skipped machine %d at key %d", machines, keys, prev+1, k)
				}
				prev = owner
				counts[owner]++
			}
			if keys >= machines {
				if len(counts) != machines {
					t.Fatalf("m=%d keys=%d: only %d machines own keys", machines, keys, len(counts))
				}
				base := keys / machines
				for m, c := range counts {
					if c != base && c != base+1 {
						t.Fatalf("m=%d keys=%d: machine %d owns %d keys, want %d or %d",
							machines, keys, m, c, base, base+1)
					}
				}
			} else if len(counts) != keys {
				t.Fatalf("m=%d keys=%d: %d machines own keys, want one per key", machines, keys, len(counts))
			}

			// OwnerAffine moves in lock-step: every key's shard is co-located
			// with its RangeOwner whenever there is a shard per machine.
			shards := 2 * machines
			p := OwnerAffine(machines, keys)
			for k := 0; k < keys; k++ {
				shard := p.ShardFor(uint64(k), shards)
				if m := p.MachineFor(shard, shards); m != RangeOwner(uint64(k), machines, keys) {
					t.Fatalf("m=%d keys=%d: key %d co-located with %d, owner %d",
						machines, keys, k, m, RangeOwner(uint64(k), machines, keys))
				}
			}
		}
	}
}

// TestOwnerAffineZeroKeyspaceFallsBackToHash pins the degenerate-keyspace
// fix: with keys <= 0 there is no ownership to co-locate by, and the old
// behavior silently clamped every key to machine 0 (false co-location that
// misclassified all of machine 0's traffic as local).  The placement must
// behave exactly like HashRandom instead.
func TestOwnerAffineZeroKeyspaceFallsBackToHash(t *testing.T) {
	for _, keys := range []int{0, -5} {
		p := OwnerAffine(4, keys)
		h := HashRandom()
		if p.Name() != h.Name() {
			t.Fatalf("keys=%d: name %q, want %q", keys, p.Name(), h.Name())
		}
		for k := uint64(0); k < 64; k++ {
			if got, want := p.ShardFor(k, 16), h.ShardFor(k, 16); got != want {
				t.Fatalf("keys=%d: ShardFor(%d) = %d, hash places %d", keys, k, got, want)
			}
		}
		for s := 0; s < 16; s++ {
			if m := p.MachineFor(s, 16); m != -1 {
				t.Fatalf("keys=%d: shard %d reports co-location with machine %d", keys, s, m)
			}
		}
	}
	// The store built on the degenerate placement classifies everything
	// remote — no machine can claim local reads it does not deserve.
	s := mustStore("d0", Options{Shards: 8, Placement: OwnerAffine(4, 0)})
	if err := s.View(0).Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.View(0).Get(1); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LocalReads != 0 || st.RemoteReads != 1 {
		t.Fatalf("degenerate keyspace classified reads local: %+v", st)
	}
}

// TestNewOwnershipBalancesSkewedWeights checks the point of the weighted
// table: with hub weights concentrated on low keys, the range split
// overloads machine 0 while the weighted split keeps every machine's owned
// weight near the mean.
func TestNewOwnershipBalancesSkewedWeights(t *testing.T) {
	const machines, keys = 8, 1024
	weights := make([]int, keys)
	for i := range weights {
		weights[i] = 1
	}
	// Three hubs at the front, like the CW/HL stand-ins.
	weights[0], weights[1], weights[2] = 900, 700, 500

	maxMean := func(own *Ownership) float64 {
		var total, max int64
		for m := 0; m < machines; m++ {
			lo, hi := own.Range(m)
			var load int64
			for k := lo; k < hi; k++ {
				load += int64(weights[k])
			}
			total += load
			if load > max {
				max = load
			}
		}
		return float64(max) * float64(machines) / float64(total)
	}

	ranged := maxMean(RangeOwnership(machines, keys))
	balanced := maxMean(NewOwnership(machines, weights))
	if balanced >= ranged {
		t.Fatalf("weighted split max/mean %.3f not below range split %.3f", balanced, ranged)
	}
	if balanced > 2.5 {
		t.Fatalf("weighted split max/mean %.3f, want near 1 (hubs bound it below %d/%d)", balanced, 900*machines, 900+700+500+keys-3)
	}

	// Every machine still owns keys: weighted balance never starves one.
	own := NewOwnership(machines, weights)
	for m := 0; m < machines; m++ {
		if lo, hi := own.Range(m); lo >= hi {
			t.Fatalf("machine %d owns no keys", m)
		}
	}
}

// TestOwnershipOwnerOfMatchesOracle walks every key of several weight
// shapes and checks OwnerOf against a linear scan of the ranges, plus the
// clamping rules shared with RangeOwner.
func TestOwnershipOwnerOfMatchesOracle(t *testing.T) {
	shapes := map[string][]int{
		"uniform":   {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		"front-hub": {100, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		"back-hub":  {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 100},
		"zeros":     {0, 0, 5, 0, 0, 5, 0, 0, 5, 0, 0, 5},
		"tiny":      {3, 9},
	}
	for name, weights := range shapes {
		for _, machines := range []int{1, 2, 3, 5, 8, 20} {
			own := NewOwnership(machines, weights)
			for k := 0; k < len(weights); k++ {
				want := -1
				for m := 0; m < machines; m++ {
					lo, hi := own.Range(m)
					if k >= lo && k < hi {
						want = m
						break
					}
				}
				if got := own.OwnerOf(uint64(k)); got != want {
					t.Fatalf("%s m=%d: OwnerOf(%d) = %d, oracle %d", name, machines, k, got, want)
				}
			}
			if got := own.OwnerOf(uint64(len(weights)) + 7); machines > 1 && got != machines-1 {
				t.Fatalf("%s m=%d: out-of-range key owned by %d, want last machine", name, machines, got)
			}
		}
	}
}

// TestWeightedOwnerPlacement checks the placement built from a weighted
// table: co-location agrees with OwnerOf, degraded shard counts lose
// affinity, and empty weight slices fall back to hashing.
func TestWeightedOwnerPlacement(t *testing.T) {
	weights := []int{50, 1, 1, 1, 1, 1, 1, 50}
	const machines, shards = 4, 16
	p := OwnershipPlacement(NewOwnership(machines, weights))
	if p.Name() != "weighted" {
		t.Fatalf("name %q", p.Name())
	}
	own := NewOwnership(machines, weights)
	for k := uint64(0); k < uint64(len(weights)); k++ {
		shard := p.ShardFor(k, shards)
		if shard < 0 || shard >= shards {
			t.Fatalf("key %d: shard %d out of range", k, shard)
		}
		if m := p.MachineFor(shard, shards); m != own.OwnerOf(k) {
			t.Fatalf("key %d: co-located with %d, owner %d", k, m, own.OwnerOf(k))
		}
	}
	// Fewer shards than machines: no co-location.
	for s := 0; s < 2; s++ {
		if m := p.MachineFor(s, 2); m != -1 {
			t.Fatalf("degraded placement co-locates shard %d with %d", s, m)
		}
	}
	// Empty keyspace: HashRandom semantics.
	for _, empty := range []Placement{OwnershipPlacement(NewOwnership(4, nil)), OwnershipPlacement(nil)} {
		if empty.Name() != "hash" {
			t.Fatalf("empty weights placement %q, want hash fallback", empty.Name())
		}
	}
}

// TestRangeOwnerStartBoundaryContract pins the [start, end) contract of the
// closed-form boundaries in the degenerate cases: a single machine owns the
// whole keyspace, m past the pool clamps to keys, and the concatenated
// ranges cover [0, keys) exactly.
func TestRangeOwnerStartBoundaryContract(t *testing.T) {
	if got := RangeOwnerStart(1, 1, 50); got != 50 {
		t.Fatalf("single machine: end boundary %d, want 50", got)
	}
	if got := RangeOwnerStart(0, 1, 50); got != 0 {
		t.Fatalf("single machine: start boundary %d, want 0", got)
	}
	if got := RangeOwnerStart(9, 4, 100); got != 100 {
		t.Fatalf("m past pool: boundary %d, want keys", got)
	}
	if got := RangeOwnerStart(2, 4, 0); got != 0 {
		t.Fatalf("empty keyspace: boundary %d, want 0", got)
	}
	for _, machines := range []int{1, 2, 5, 8, 13} {
		for _, keys := range []int{0, 1, 7, 12, 100} {
			for m := 0; m < machines; m++ {
				lo := RangeOwnerStart(m, machines, keys)
				hi := RangeOwnerStart(m+1, machines, keys)
				if lo > hi {
					t.Fatalf("m=%d machines=%d keys=%d: inverted range [%d, %d)", m, machines, keys, lo, hi)
				}
				for k := lo; k < hi; k++ {
					if got := RangeOwner(uint64(k), machines, keys); got != m {
						t.Fatalf("m=%d machines=%d keys=%d: key %d owned by %d", m, machines, keys, k, got)
					}
				}
			}
			if end := RangeOwnerStart(machines, machines, keys); end != keys {
				t.Fatalf("machines=%d keys=%d: ranges end at %d", machines, keys, end)
			}
		}
	}
}
