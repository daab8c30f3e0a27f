package dht

import "testing"

func TestRangeOwner(t *testing.T) {
	// 100 keys over 4 machines: span 25, contiguous ranges.
	for _, tc := range []struct {
		key      uint64
		machines int
		keys     int
		want     int
	}{
		{0, 4, 100, 0},
		{24, 4, 100, 0},
		{25, 4, 100, 1},
		{99, 4, 100, 3},
		{1000, 4, 100, 3}, // out-of-range keys clamp to the last machine
		{7, 1, 100, 0},
		{7, 4, 0, 0}, // no keyspace declared
		{5, 8, 3, 7}, // keys beyond the keyspace clamp to the last machine
	} {
		if got := RangeOwner(tc.key, tc.machines, tc.keys); got != tc.want {
			t.Errorf("RangeOwner(%d, %d, %d) = %d, want %d", tc.key, tc.machines, tc.keys, got, tc.want)
		}
	}
	// Every machine owns a nonempty contiguous range.
	seen := make(map[int]int)
	for k := uint64(0); k < 100; k++ {
		seen[RangeOwner(k, 4, 100)]++
	}
	if len(seen) != 4 {
		t.Fatalf("owners used: %v, want all 4", seen)
	}
}

func TestHashRandomHasNoAffinity(t *testing.T) {
	p := HashRandom()
	for s := 0; s < 16; s++ {
		if m := p.MachineFor(s, 16); m != -1 {
			t.Fatalf("hash placement co-located shard %d with machine %d", s, m)
		}
	}
	if p.Name() != "hash" {
		t.Fatalf("name %q", p.Name())
	}
}

func TestOwnerAffineCoLocatesOwnedKeys(t *testing.T) {
	const machines, keys, shards = 4, 1000, 16
	p := OwnerAffine(machines, keys)
	if p.Name() != "owner" {
		t.Fatalf("name %q", p.Name())
	}
	for k := uint64(0); k < keys; k++ {
		owner := RangeOwner(k, machines, keys)
		shard := p.ShardFor(k, shards)
		if shard < 0 || shard >= shards {
			t.Fatalf("key %d: shard %d out of range", k, shard)
		}
		if m := p.MachineFor(shard, shards); m != owner {
			t.Fatalf("key %d: owner %d but shard %d is co-located with machine %d", k, owner, shard, m)
		}
	}
	// Keys spread over multiple shards per machine (not all on one).
	used := make(map[int]bool)
	for k := uint64(0); k < keys; k++ {
		used[p.ShardFor(k, shards)] = true
	}
	if len(used) != shards {
		t.Fatalf("only %d of %d shards used", len(used), shards)
	}
}

func TestOwnerAffineDegradesWithFewShards(t *testing.T) {
	// Fewer shards than machines: no co-location, but keys still place.
	p := OwnerAffine(8, 100)
	for k := uint64(0); k < 100; k++ {
		s := p.ShardFor(k, 4)
		if s < 0 || s >= 4 {
			t.Fatalf("key %d: shard %d out of range", k, s)
		}
	}
	for s := 0; s < 4; s++ {
		if m := p.MachineFor(s, 4); m != -1 {
			t.Fatalf("shard %d claims machine %d with shards < machines", s, m)
		}
	}
}

func TestStoreClassifiesLocalAndRemoteReads(t *testing.T) {
	const machines, keys = 4, 100
	s := mustStore("d0", Options{Shards: 16, Placement: OwnerAffine(machines, keys)})
	for k := uint64(0); k < keys; k++ {
		if err := s.View(RangeOwner(k, machines, keys)).Put(k, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	// Writes by the owner are all local: nothing crossed the network.
	if st := s.Stats(); st.RemoteBytes != 0 {
		t.Fatalf("owner writes moved %d remote bytes, want 0", st.RemoteBytes)
	}

	// Machine 0 reading its own keys: local.  Reading machine 3's keys:
	// remote.
	if !s.LocalTo(0, 0) || s.LocalTo(0, 99) || s.LocalTo(-1, 0) {
		t.Fatal("LocalTo misclassifies")
	}
	for k := uint64(0); k < 25; k++ {
		if _, _, err := s.View(0).Get(k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(75); k < 100; k++ {
		if _, _, err := s.View(0).Get(k); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.LocalReads != 25 || st.RemoteReads != 25 {
		t.Fatalf("local/remote = %d/%d, want 25/25", st.LocalReads, st.RemoteReads)
	}
	if st.RemoteBytes != 25*9 { // 25 remote reads of 1 value byte + 8 header
		t.Fatalf("remote bytes %d, want %d", st.RemoteBytes, 25*9)
	}
}

func TestAnonymousCallersStayRemote(t *testing.T) {
	// The pre-placement API (Get/Put without a machine) must behave exactly
	// as before: everything remote, hash placement.
	s := mustStore("d0", Options{Shards: 8})
	if err := s.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(1); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.LocalReads != 0 || st.RemoteReads != 1 {
		t.Fatalf("anonymous reads classified local: %+v", st)
	}
	if st.RemoteBytes != st.BytesRead+st.BytesWritten {
		t.Fatalf("anonymous traffic must be fully remote: %+v", st)
	}
}

func TestBatchGetFromSplitsVisits(t *testing.T) {
	const machines, keys = 4, 100
	s := mustStore("d0", Options{Shards: 8, Placement: OwnerAffine(machines, keys)})
	var all []uint64
	for k := uint64(0); k < keys; k++ {
		all = append(all, k)
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	vals, oks, visits, err := s.View(1).BatchGet(all)
	if err != nil {
		t.Fatal(err)
	}
	if visits.Local != 2 || visits.Remote != 6 {
		// 8 shards over 4 machines = 2 shards per machine.
		t.Fatalf("visits = %+v, want 2 local + 6 remote", visits)
	}
	for i, k := range all {
		if !oks[i] || vals[i][0] != byte(k) {
			t.Fatalf("key %d misread", k)
		}
	}
	st := s.Stats()
	if st.LocalReads != 25 || st.RemoteReads != 75 {
		t.Fatalf("local/remote = %d/%d, want 25/75", st.LocalReads, st.RemoteReads)
	}

	// The anonymous wrapper reports the same total and classifies remote.
	_, _, total, err := s.BatchGet(all[:10])
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || total > 8 {
		t.Fatalf("total visits %d", total)
	}
}

func TestBatchPutFromLocalWritesMoveNoRemoteBytes(t *testing.T) {
	const machines, keys = 4, 100
	s := mustStore("d0", Options{Shards: 8, Placement: OwnerAffine(machines, keys)})
	var pairs []Pair
	for k := uint64(25); k < 50; k++ { // all owned by machine 1
		pairs = append(pairs, Pair{Key: k, Value: []byte{byte(k)}})
	}
	visits, err := s.View(1).BatchPut(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if visits.Remote != 0 || visits.Local == 0 {
		t.Fatalf("owner batch write visits = %+v, want all local", visits)
	}
	if st := s.Stats(); st.RemoteBytes != 0 {
		t.Fatalf("owner batch write moved %d remote bytes", st.RemoteBytes)
	}
	// The same write from a non-owner is fully remote.
	visits, err = s.View(2).BatchPut(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if visits.Local != 0 || visits.Remote == 0 {
		t.Fatalf("non-owner batch write visits = %+v, want all remote", visits)
	}
}
