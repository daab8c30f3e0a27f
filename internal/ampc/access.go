package ampc

import (
	"ampcgraph/internal/dht"
)

// Access declares one store a round touches, optionally narrowed to the key
// spans each machine touches.  The executor freezes a round's Read store,
// fences the caches of every store the round reads, and after the round
// invalidates exactly the spans its Writes declare from every machine's
// cache of the written stores.
//
// Span precedence: when PerMachine is non-nil it supplies the spans of each
// machine's share; otherwise Spans applies to every machine; a zero Spans
// (and nil PerMachine) declares the whole store.  Narrowed spans are a
// contract: the machine's Body must not write keys outside its declared
// spans, or another machine's cache may keep a stale entry.
type Access struct {
	// Store is the hash table accessed.
	Store *dht.Store
	// Spans is the key span set touched on every machine.  The zero value
	// declares the whole store (the compatible default).
	Spans dht.RangeSet
	// PerMachine, when non-nil, supplies the span set of each machine's
	// share, overriding Spans.  Partition-aligned rounds use it to declare
	// that machine m only touches the keys it owns.
	PerMachine func(machine int) dht.RangeSet
}

// RangedBy declares a store access with per-machine spans: machine m touches
// only per[m].  Machines beyond len(per) declare the empty set.
func RangedBy(s *dht.Store, per []dht.RangeSet) Access {
	return Access{Store: s, PerMachine: func(m int) dht.RangeSet {
		if m < 0 || m >= len(per) {
			return dht.EmptyRange()
		}
		return per[m]
	}}
}

// spansFor returns the span set of machine m's share.
func (a Access) spansFor(m int) dht.RangeSet {
	if a.PerMachine != nil {
		return a.PerMachine(m)
	}
	return a.Spans
}
