package dht

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// The View API binds a machine once instead of threading it through a
// per-call machine parameter; these tests pin the contract — a view's
// operations match the store's internal machine-classified path call for
// call, and the accounting (local/remote classification) is identical.

func TestViewsOfTwoMachinesClassifyDifferently(t *testing.T) {
	const machines, keys = 2, 1 << 10
	s := mustStore("d0", Options{Shards: 4, Placement: OwnerAffine(machines, keys)})
	const key = 3
	owner := RangeOwner(key, machines, keys)
	if !s.View(owner).Local(key) {
		t.Fatalf("key %d is not local to its owner, machine %d", key, owner)
	}
	if s.View(1 - owner).Local(key) {
		t.Fatalf("key %d is local to both machines", key)
	}
	if s.View(-1).Local(key) {
		t.Fatal("the anonymous caller's view classified a key as local")
	}
}

func TestViewOperationsMatchMachineClassifiedPath(t *testing.T) {
	// Two stores with identical options, one driven through Views, the
	// other through the internal machine-classified operations the views
	// delegate to: contents and every counter must come out identical.
	opts := Options{Shards: 8, Placement: OwnerAffine(4, 1<<10)}
	viaView := mustStore("d0", opts)
	direct := mustStore("d0", opts)
	// Machine 0 owns the low key range under the owner-affine placement, so
	// the small keys below classify as local and exercise both splits.
	const machine = 0
	v := viaView.View(machine)

	for k := uint64(0); k < 32; k++ {
		if err := v.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
		if err := direct.putFrom(machine, k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Put(3, []byte("xy")); err != nil { // overwrite
		t.Fatal(err)
	}
	if err := direct.putFrom(machine, 3, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	pairs := []Pair{{Key: 100, Value: []byte("a")}, {Key: 101, Value: []byte("b")}}
	if _, err := v.BatchPut(pairs); err != nil {
		t.Fatal(err)
	}
	if _, err := direct.batchWrite(machine, pairs); err != nil {
		t.Fatal(err)
	}
	more := []Pair{{Key: 100, Value: []byte("+")}, {Key: 102, Value: []byte("c")}}
	if _, err := v.BatchPut(more); err != nil {
		t.Fatal(err)
	}
	if _, err := direct.batchWrite(machine, more); err != nil {
		t.Fatal(err)
	}

	keys := []uint64{0, 3, 7, 100, 101, 102, 999}
	for _, k := range keys {
		gotV, okV, errV := v.Get(k)
		gotD, okD, errD := direct.getFrom(machine, k)
		if okV != okD || (errV == nil) != (errD == nil) || !bytes.Equal(gotV, gotD) {
			t.Fatalf("key %d: view read (%v,%v,%v) != direct read (%v,%v,%v)",
				k, gotV, okV, errV, gotD, okD, errD)
		}
		if v.Local(k) != direct.LocalTo(machine, k) {
			t.Fatalf("key %d: view locality disagrees with LocalTo", k)
		}
	}
	valsV, oksV, visitsV, err := v.BatchGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	valsD, oksD, visitsD, err := direct.batchGetFrom(machine, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(valsV, valsD) || !reflect.DeepEqual(oksV, oksD) || visitsV != visitsD {
		t.Fatal("batched view reads differ from the machine-classified path")
	}

	if viaView.Stats() != direct.Stats() {
		t.Fatalf("counter divergence:\nview:   %+v\ndirect: %+v", viaView.Stats(), direct.Stats())
	}
	if viaView.Stats().LocalReads == 0 {
		t.Fatal("no local reads: the machine binding did not reach the accounting")
	}
}

// TestStoreCloseTwice: a store has one owner, which closes it once; a second
// Close is a no-op and Len keeps answering from the close-time snapshot.
func TestStoreCloseTwice(t *testing.T) {
	for _, kind := range BackendKinds() {
		s := storeForBackend(t, kind, Options{Shards: 2})
		for k := uint64(1); k <= 3; k++ {
			if err := s.Put(k, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			if err := s.Close(); err != nil {
				t.Fatalf("%s: close %d: %v", kind, i, err)
			}
		}
		if got := s.Len(); got != 3 {
			t.Fatalf("%s: Len after close = %d, want the pre-close snapshot 3", kind, got)
		}
	}
}

func TestStoreAccessors(t *testing.T) {
	for _, kind := range BackendKinds() {
		s := storeForBackend(t, kind, Options{Shards: 4})
		if s.Name() != "d0" {
			t.Fatalf("Name = %q", s.Name())
		}
		if s.Backend() != kind {
			t.Fatalf("Backend() = %q, want %q", s.Backend(), kind)
		}
		if got := s.BackendStats().Kind; got != kind {
			t.Fatalf("BackendStats().Kind = %q, want %q", got, kind)
		}
		if s.Placement() == nil {
			t.Fatal("Placement() = nil")
		}
		if s.NumShards() != 4 {
			t.Fatalf("NumShards = %d", s.NumShards())
		}
	}
}

func TestBackendsRange(t *testing.T) {
	for _, kind := range BackendKinds() {
		t.Run(string(kind), func(t *testing.T) {
			s := storeForBackend(t, kind, Options{Shards: 4})
			want := map[uint64][]byte{}
			for k := uint64(0); k < 40; k++ {
				val := []byte{byte(k), byte(k >> 1)}
				if err := s.Put(k, val); err != nil {
					t.Fatal(err)
				}
				want[k] = val
			}
			got := map[uint64][]byte{}
			s.Range(func(k uint64, v []byte) bool {
				got[k] = append([]byte(nil), v...)
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("Range visited %d keys, want %d", len(got), len(want))
			}
			for k, v := range want {
				if !bytes.Equal(got[k], v) {
					t.Fatalf("key %d: Range saw %v, want %v", k, got[k], v)
				}
			}
			// An early-stopping callback visits strictly fewer keys.
			visited := 0
			s.Range(func(uint64, []byte) bool {
				visited++
				return visited < 5
			})
			if visited != 5 {
				t.Fatalf("early stop visited %d keys, want 5", visited)
			}
		})
	}
}

func TestFreezeIsIdempotent(t *testing.T) {
	for _, kind := range BackendKinds() {
		s := storeForBackend(t, kind, Options{Shards: 2})
		if err := s.Put(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		s.Freeze()
		s.Freeze() // second freeze is a no-op, not a double backend flush
		if !s.Frozen() {
			t.Fatal("store not frozen")
		}
		if err := s.Put(2, []byte("y")); !errors.Is(err, ErrFrozen) {
			t.Fatalf("Put on frozen store: %v, want ErrFrozen", err)
		}
	}
}
