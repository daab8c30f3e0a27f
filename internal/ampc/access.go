package ampc

import (
	"ampcgraph/internal/dht"
)

// Key-range conflict declarations.
//
// Ordering rounds by whole-store conflict sets makes a round reading a store
// wait for every machine of every earlier round writing it.  That
// granularity forbids the overlap the AMPC model actually allows — machine M's searches over its own contiguous key range do not
// depend on a straggler still writing a *different* range of the same store.
// Rounds therefore declare each store access as an Access: the store plus
// the key spans touched, per machine when the partitioning is known.  The
// zero span set means "the whole store", so a declaration that only names
// the store keeps that conservative meaning.

// Access declares one resource a round touches: a hash table (Store), or a
// zero-storage scheduling Token, optionally narrowed to key spans.
//
// Span precedence: when PerMachine is non-nil it supplies the spans of each
// machine's sub-round; otherwise Spans applies to every machine; a zero
// Spans (and nil PerMachine) declares the whole store.  Narrowed spans are a
// contract: the machine's Body must not touch keys outside its declared
// spans, exactly as an undeclared write is a contract violation in a
// multi-round segment.
type Access struct {
	// Store is the hash table accessed; nil for token-only declarations.
	Store *dht.Store
	// Token is a zero-storage scheduling resource (see NewToken); nil for
	// store declarations.  Tokens always conflict whole — spans are ignored.
	Token *Token
	// Spans is the key span set touched on every machine.  The zero value
	// declares the whole store (the compatible default).
	Spans dht.RangeSet
	// PerMachine, when non-nil, supplies the span set of each machine's
	// sub-round, overriding Spans.  Partition-aligned rounds use it to
	// declare that machine m only touches the keys it owns.
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

// spansFor returns the span set of machine m's sub-round.
func (a Access) spansFor(m int) dht.RangeSet {
	if a.PerMachine != nil {
		return a.PerMachine(m)
	}
	return a.Spans
}

// resource returns the identity the scheduler orders on.
func (a Access) resource() any {
	if a.Store != nil {
		return a.Store
	}
	if a.Token != nil {
		return a.Token
	}
	return nil
}

// conflictsWith reports whether machine am's share of an earlier round with
// this access must be ordered against machine bm's share of a later round
// with access b: same resource and overlapping spans.
func (a Access) conflictsWith(am int, b Access, bm int) bool {
	res := a.resource()
	if res == nil || res != b.resource() {
		return false
	}
	if a.Token != nil {
		return true // tokens conflict whole
	}
	return a.spansFor(am).Overlaps(b.spansFor(bm))
}

// Token is a zero-storage scheduling resource.  A round that publishes
// host-side state (result slices guarded by a mutex, memoized caches) for a
// later round to consume has a real dependency the store declarations cannot
// express; declaring a write and a read of the same Token orders the rounds
// under RunPipeline without creating a hash table.  Tokens conflict at whole
// granularity — spans do not apply.
type Token struct{ name string }

// NewToken returns a fresh scheduling token.  Identity is pointer identity;
// the name only labels the token in a debugger or a %+v, and keeps the struct
// non-empty, so two tokens never share an address.
func NewToken(name string) *Token { return &Token{name: name} }

// Widen returns a copy of rounds with every access declaration stretched to
// its whole store, recovering the PR 3 store-set conflict granularity.  The
// pipeline experiment uses it as the whole-store baseline: the same rounds,
// scheduled without key-range information.
func Widen(rounds []Round) []Round {
	out := make([]Round, len(rounds))
	for i, rd := range rounds {
		rd.Reads = widenAccesses(rd.Reads)
		rd.Writes = widenAccesses(rd.Writes)
		out[i] = rd
	}
	return out
}

func widenAccesses(list []Access) []Access {
	if list == nil {
		return nil
	}
	out := make([]Access, len(list))
	for i, a := range list {
		out[i] = Access{Store: a.Store, Token: a.Token}
	}
	return out
}
