package ampc

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ampcgraph/internal/dht"
)

// skewedWeights is a hub-heavy weight vector: a few low keys carry most of
// the work, like the CW/HL stand-ins.
func skewedWeights(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	if n > 3 {
		w[0], w[1], w[2] = n/2, n/3, n/4
	}
	return w
}

// TestSetOwnershipBuildsWeightedPlacement checks the tentpole invariant:
// under PlacementWeighted the partitioners and the shard placement of every
// store created after SetOwnership answer "who owns key k" identically, so
// a machine's traffic for its own keys is classified local.
func TestSetOwnershipBuildsWeightedPlacement(t *testing.T) {
	const n = 200
	r := New(Config{Machines: 4, Placement: PlacementWeighted})
	defer r.Close()
	r.SetOwnership(skewedWeights(n))
	store := newStore(t, r, "d0")
	if got := store.Placement().Name(); got != "weighted" {
		t.Fatalf("store placement %q, want weighted", got)
	}
	part := r.OwnerPartitioner(n)
	shards := store.NumShards()
	for k := 0; k < n; k++ {
		owner := part(k)
		shard := store.Placement().ShardFor(uint64(k), shards)
		if m := store.Placement().MachineFor(shard, shards); m != owner {
			t.Fatalf("key %d: shard co-located with %d, partitioner assigns %d", k, m, owner)
		}
		if !store.LocalTo(owner, uint64(k)) {
			t.Fatalf("key %d not local to its owner %d", k, owner)
		}
	}
	// The weighted split must differ from the uniform one on skewed weights
	// (otherwise the table is not actually consulted).
	differs := false
	for k := 0; k < n; k++ {
		if part(k) != dht.RangeOwner(uint64(k), 4, n) {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("weighted partitioner identical to range split on skewed weights")
	}
	// Block partitioner agrees with the per-key partitioner on block starts.
	bp := r.BlockOwnerPartitioner(16, n)
	for b := 0; b < NumBlocks(n, 16); b++ {
		lo, _ := BlockBounds(b, 16, n)
		if bp(b) != part(lo) {
			t.Fatalf("block %d assigned to %d, first key owned by %d", b, bp(b), part(lo))
		}
	}
}

// TestSetOwnershipInertUnderOtherPlacements checks that declaring weights
// under hash or owner-affine placement only sets the keyspace: the
// partitioners keep the uniform range split that matches the owner-affine
// placement, so placement and partitioning cannot disagree.
func TestSetOwnershipInertUnderOtherPlacements(t *testing.T) {
	const n = 100
	for _, placement := range []string{PlacementHash, PlacementOwnerAffine} {
		r := New(Config{Machines: 4, Placement: placement})
		r.SetOwnership(skewedWeights(n))
		part := r.OwnerPartitioner(n)
		for k := 0; k < n; k++ {
			if want := dht.RangeOwner(uint64(k), 4, n); part(k) != want {
				t.Fatalf("%s: partitioner(%d) = %d, want range owner %d", placement, k, part(k), want)
			}
		}
		r.Close()
	}
}

// TestSetKeyspaceDropsMismatchedOwnership checks that declaring a different
// keyspace after SetOwnership discards the stale table instead of letting
// partitioners answer from boundaries built for another keyspace.
func TestSetKeyspaceDropsMismatchedOwnership(t *testing.T) {
	r := New(Config{Machines: 4, Placement: PlacementWeighted})
	defer r.Close()
	// declared reports whether partitioners of the keyspace answer from the
	// declared table rather than the uniform split.
	declared := func(keys int) bool {
		own := r.ownershipFor(keys)
		return own.Keys() == keys && own == r.ownership
	}
	r.SetOwnership(skewedWeights(64))
	if !declared(64) {
		t.Fatal("ownership table not built")
	}
	// A partitioner for a different keyspace must not use the table.
	if declared(100) {
		t.Fatal("table served for a mismatched keyspace")
	}
	r.SetKeyspace(100)
	if declared(64) {
		t.Fatal("stale table survived a keyspace change")
	}
	// Same keyspace keeps the table.
	r.SetOwnership(skewedWeights(64))
	r.SetKeyspace(64)
	if !declared(64) {
		t.Fatal("matching keyspace dropped the table")
	}
}

// TestSetOwnershipKeepsIdenticalWeights: re-declaring the weights the table
// was built from keeps the same table, so concurrent jobs prepared against
// one graph do not thrash it, while any other weights over the same
// keyspace — including the caller's slice edited in place — build a new
// table whose ranges follow them.
func TestSetOwnershipKeepsIdenticalWeights(t *testing.T) {
	const n, machines = 200, 4
	s := NewSession(Config{Machines: machines, Placement: PlacementWeighted})
	defer s.Close()
	s.SetOwnership(skewedWeights(n))
	first := s.ownershipFor(n)
	s.SetOwnership(skewedWeights(n))
	if got := s.ownershipFor(n); got != first {
		t.Fatal("identical weights rebuilt the ownership table")
	}
	// The hubs move to the top of the keyspace.
	w := skewedWeights(n)
	slices.Reverse(w)
	s.SetOwnership(w)
	next := s.ownershipFor(n)
	if next == first {
		t.Fatal("different weights kept the old table")
	}
	want := dht.NewOwnership(machines, w)
	moved := false
	for m := 0; m < machines; m++ {
		lo, hi := next.Range(m)
		if wlo, whi := want.Range(m); lo != wlo || hi != whi {
			t.Fatalf("machine %d owns [%d, %d), the weights give [%d, %d)", m, lo, hi, wlo, whi)
		}
		if olo, ohi := first.Range(m); lo != olo || hi != ohi {
			moved = true
		}
	}
	if !moved {
		t.Fatal("reversed weights left every range where it was")
	}
	w[0] += n // the caller's slice, edited in place, is another declaration
	s.SetOwnership(w)
	if s.ownershipFor(n) == next {
		t.Fatal("weights edited in place kept the table built from their old values")
	}
}

// TestWeightedPlacementWithoutWeightsFallsBack checks the fallback ladder:
// PlacementWeighted with only a keyspace degrades to the owner-affine
// placement (uniform weights), and with no keyspace at all to hashing.
func TestWeightedPlacementWithoutWeightsFallsBack(t *testing.T) {
	r := New(Config{Machines: 4, Placement: PlacementWeighted})
	defer r.Close()
	if got := newStore(t, r, "no-keyspace").Placement().Name(); got != "hash" {
		t.Fatalf("no keyspace: placement %q, want hash", got)
	}
	r.SetKeyspace(100)
	if got := newStore(t, r, "keyspace-only").Placement().Name(); got != "owner" {
		t.Fatalf("keyspace only: placement %q, want owner", got)
	}
	r.SetOwnership(make([]int, 0))
	if got := newStore(t, r, "empty-weights").Placement().Name(); got != "hash" {
		t.Fatalf("empty weights: placement %q, want hash", got)
	}
}

// TestWeightedPlacementKeepsOwnedTrafficLocal runs a real round under the
// weighted placement: every machine writes and reads back its own keys, and
// all of that traffic must be classified local.
func TestWeightedPlacementKeepsOwnedTrafficLocal(t *testing.T) {
	const n = 256
	r := New(Config{Machines: 4, Placement: PlacementWeighted})
	defer r.Close()
	r.SetOwnership(skewedWeights(n))
	store := newStore(t, r, "d0")
	err := r.Run(Round{
		Name:        "write-own",
		Items:       n,
		Partitioner: r.OwnerPartitioner(n),
		Body: func(ctx *Ctx, item int) error {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(item))
			return ctx.Write(store, uint64(item), buf[:])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = r.Run(Round{
		Name:        "read-own",
		Items:       n,
		Read:        store,
		Partitioner: r.OwnerPartitioner(n),
		Body: func(ctx *Ctx, item int) error {
			_, _, err := ctx.Lookup(uint64(item))
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.RemoteReads != 0 || st.LocalReads != n {
		t.Fatalf("owned reads classified local/remote = %d/%d, want %d/0", st.LocalReads, st.RemoteReads, n)
	}
	if st.KVRemoteBytes != 0 {
		t.Fatalf("owned traffic moved %d remote bytes", st.KVRemoteBytes)
	}
}

// TestOwnerCutBlocks: the blocks partition the item list in order, none is
// larger than size or holds items of two owners, a block is cut short only at
// an ownership change, and every machine owning an item gets one — on sorted
// item lists (samples in vertex order) and unsorted ones, under the uniform
// and the weighted partition.
func TestOwnerCutBlocks(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		machines, keys := 1+rnd.Intn(5), 1+rnd.Intn(400)
		cfg := Config{Machines: machines}
		if trial%2 == 1 {
			cfg.Placement = PlacementWeighted
		}
		s := NewSession(cfg)
		s.SetOwnership(skewedWeights(keys))
		items := make([]int, rnd.Intn(120))
		for i := range items {
			items[i] = rnd.Intn(keys)
		}
		if trial%3 != 0 {
			sort.Ints(items)
		}
		size := 1 + rnd.Intn(40)
		blocks := s.OwnerCutBlocks(size, len(items), keys, func(i int) int { return items[i] })
		owner := s.OwnerPartitioner(keys)
		owns, runs := make([]bool, machines), make([]bool, machines)
		next := 0
		for b, blk := range blocks {
			if blk.Lo != next || blk.Hi <= blk.Lo || blk.Hi-blk.Lo > size {
				t.Fatalf("trial %d: block %d = %+v after item %d, size %d", trial, b, blk, next, size)
			}
			next = blk.Hi
			runs[blk.Machine] = true
			for i := blk.Lo; i < blk.Hi; i++ {
				if o := owner(items[i]); o != blk.Machine {
					t.Fatalf("trial %d: block %+v holds item %d (key %d) of machine %d", trial, blk, i, items[i], o)
				}
			}
			if b > 0 && blocks[b-1].Machine == blk.Machine && blocks[b-1].Hi-blocks[b-1].Lo < size {
				t.Fatalf("trial %d: block %+v cut short before %+v of the same owner", trial, blocks[b-1], blk)
			}
		}
		if next != len(items) {
			t.Fatalf("trial %d: blocks cover %d of %d items", trial, next, len(items))
		}
		for _, k := range items {
			owns[owner(k)] = true
		}
		if !reflect.DeepEqual(owns, runs) {
			t.Fatalf("trial %d: machines owning items %v, machines given blocks %v", trial, owns, runs)
		}
		s.Close()
	}
}
