package dht

// The View API.
//
// Every store operation needs to know which machine performs it, because a
// shard co-located with the caller is a DRAM access while any other shard is
// a network round trip.  A View binds the machine once and exposes the plain
// operation names, so call sites read like ordinary store calls and cannot
// accidentally mix machines within one logical caller.

// View is a Store handle bound to one calling machine: its operations are
// classified as local when they touch a shard co-located with that machine.
// A View is a two-word value — Store.View builds one, nothing remembers it —
// and is safe for concurrent use.
type View struct {
	store   *Store
	machine int
}

// View returns the store handle bound to machine.  A negative machine is an
// anonymous caller whose operations are always remote — View(-1) behaves
// exactly like the machine-less Store methods.
func (s *Store) View(machine int) View { return View{store: s, machine: machine} }

// Local reports whether key lives on a shard co-located with the view's
// machine.
func (v View) Local(key uint64) bool {
	return v.store.LocalTo(v.machine, key)
}

// Get returns the value stored under key, classified against the view's
// machine (see Store.Get).
func (v View) Get(key uint64) ([]byte, bool, error) {
	return v.store.getFrom(v.machine, key)
}

// Put stores value under key (see Store.Put).
func (v View) Put(key uint64, value []byte) error {
	return v.store.putFrom(v.machine, key, value)
}

// BatchGet returns the values stored under keys, visiting each shard once;
// visits to shards co-located with the view's machine are classified as
// local (see Store.BatchGet).
func (v View) BatchGet(keys []uint64) (vals [][]byte, oks []bool, visits Visits, err error) {
	return v.store.batchGetFrom(v.machine, keys)
}

// BatchPut stores all pairs, visiting each shard once (see Store.BatchPut).
func (v View) BatchPut(pairs []Pair) (Visits, error) {
	return v.store.batchWrite(v.machine, pairs)
}
