package dht

import (
	"math/rand"
	"testing"
)

// oracleSet is the linear-scan reference: membership of every key in a small
// universe, computed straight from the raw (un-normalized) spans.
type oracleSet struct {
	whole bool
	in    [oracleUniverse]bool
}

const oracleUniverse = 256

func oracleFromSpans(whole bool, spans []Span) oracleSet {
	o := oracleSet{whole: whole}
	if whole {
		for k := range o.in {
			o.in[k] = true
		}
		return o
	}
	for _, s := range spans {
		for k := uint64(0); k < oracleUniverse; k++ {
			if s.Contains(k) {
				o.in[k] = true
			}
		}
	}
	return o
}

// checkAgainstOracle verifies every RangeSet observer against the oracle on
// the whole universe.  Spans in tests stay within the universe so the
// linear scan sees every key the set could contain.
func checkAgainstOracle(t *testing.T, r RangeSet, o oracleSet) {
	t.Helper()
	any := false
	for k := uint64(0); k < oracleUniverse; k++ {
		if got, want := r.Contains(k), o.in[k]; got != want {
			t.Fatalf("%v.Contains(%d) = %v, oracle %v", r, k, got, want)
		}
		any = any || o.in[k]
	}
	if !o.whole {
		if r.Whole() {
			t.Fatalf("%v claims whole keyspace", r)
		}
		if r.Empty() == any {
			t.Fatalf("%v.Empty() = %v, oracle saw members=%v", r, r.Empty(), any)
		}
		// Normalization invariants: sorted, non-empty, disjoint, non-adjacent.
		spans := r.spans
		for i, s := range spans {
			if s.Empty() {
				t.Fatalf("%v keeps empty span %+v", r, s)
			}
			if i > 0 && spans[i-1].Hi >= s.Lo {
				t.Fatalf("%v not normalized: %+v then %+v", r, spans[i-1], s)
			}
		}
	}
}

func randomSpans(rng *rand.Rand, n int) []Span {
	spans := make([]Span, n)
	for i := range spans {
		lo := rng.Uint64() % (oracleUniverse - 16)
		// Mix empty (Hi <= Lo), point-adjacent, and wide spans.
		hi := lo + rng.Uint64()%24
		if rng.Intn(8) == 0 {
			hi = lo // deliberately empty
		}
		spans[i] = Span{Lo: lo, Hi: hi}
	}
	return spans
}

func TestRangeSetPropertiesAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		spans := randomSpans(rng, rng.Intn(6))
		whole := rng.Intn(10) == 0
		r := NewRangeSet(spans...)
		if whole {
			r = WholeRange()
		}
		checkAgainstOracle(t, r, oracleFromSpans(whole, spans))
	}
}

func TestRangeSetEdgeCases(t *testing.T) {
	whole := WholeRange()
	empty := EmptyRange()
	if !whole.Whole() || whole.Empty() {
		t.Fatal("WholeRange misreports itself")
	}
	// The zero value is the compatible whole-store default.
	var zero RangeSet
	if !zero.Whole() || !zero.Contains(1<<63) {
		t.Fatal("zero RangeSet must cover the whole keyspace")
	}
	if !empty.Empty() || empty.Contains(0) {
		t.Fatal("EmptyRange misreports itself")
	}
	// NewRangeSet of only empty spans is empty.
	if s := NewRangeSet(Span{5, 5}, Span{9, 3}); !s.Empty() {
		t.Fatalf("empty spans produced %v", s)
	}
	// Adjacent boundaries merge; [3,5) and [5,7) share no key but coalesce.
	adj := NewRangeSet(Span{3, 5}, Span{5, 7})
	if got := adj.spans; len(got) != 1 || got[0] != (Span{3, 7}) {
		t.Fatalf("adjacent spans not merged: %v", adj)
	}
	if adj.Contains(2) || !adj.Contains(3) || !adj.Contains(6) || adj.Contains(7) {
		t.Fatalf("merged span misplaces its boundaries: %v", adj)
	}
}

// FuzzRangeSet decodes spans from raw bytes and cross-checks Contains,
// Empty and the normalization of both sets against the linear-scan oracle,
// exercising empty, overlapping and adjacent spans.  probe may lie anywhere
// in the keyspace, far past the last span.
func FuzzRangeSet(f *testing.F) {
	f.Add([]byte{3, 5, 5, 7}, []byte{0, 3}, uint64(5))
	f.Add([]byte{}, []byte{10, 10, 2, 9}, uint64(0))
	f.Add([]byte{255, 0}, []byte{1, 255}, uint64(128))
	f.Fuzz(func(t *testing.T, araw, braw []byte, probe uint64) {
		decode := func(raw []byte) []Span {
			var spans []Span
			for i := 0; i+1 < len(raw); i += 2 {
				spans = append(spans, Span{Lo: uint64(raw[i]), Hi: uint64(raw[i+1])})
			}
			return spans
		}
		aSpans, bSpans := decode(araw), decode(braw)
		a, b := NewRangeSet(aSpans...), NewRangeSet(bSpans...)

		contains := func(spans []Span, key uint64) bool {
			for _, s := range spans {
				if s.Contains(key) {
					return true
				}
			}
			return false
		}
		if got, want := a.Contains(probe), contains(aSpans, probe); got != want {
			t.Fatalf("Contains(%d) = %v, oracle %v (spans %v)", probe, got, want, aSpans)
		}
		// Byte-decoded spans stay below the oracle universe, so the
		// linear scan is exhaustive.
		checkAgainstOracle(t, a, oracleFromSpans(false, aSpans))
		checkAgainstOracle(t, b, oracleFromSpans(false, bSpans))
	})
}

func TestCacheInvalidateRange(t *testing.T) {
	s := mustStore("inv-range", Options{Shards: 4})
	for k := uint64(0); k < 10; k++ {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCache(s)
	for k := uint64(0); k < 10; k++ {
		if _, _, err := c.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := c.Get(99); ok || err != nil {
		t.Fatalf("key 99: %v %v", ok, err)
	}
	if c.Len() != 11 {
		t.Fatalf("cache len %d, want 11", c.Len())
	}
	// Empty set: no-op.
	c.InvalidateRange(EmptyRange())
	if c.Len() != 11 {
		t.Fatalf("empty-range fence dropped entries: len %d", c.Len())
	}
	// Limited set: only the covered keys (present and absent) drop.
	c.InvalidateRange(NewRangeSet(Span{3, 6}, Span{90, 120}))
	if c.Len() != 7 {
		t.Fatalf("range fence len %d, want 7", c.Len())
	}
	if _, _, cached := c.Peek(4); cached {
		t.Fatal("key 4 survived its range fence")
	}
	if _, ok, cached := c.Peek(2); !cached || !ok {
		t.Fatal("key 2 outside the fenced range was dropped")
	}
	// Whole set degenerates to Invalidate.
	c.InvalidateRange(WholeRange())
	if c.Len() != 0 {
		t.Fatalf("whole-range fence left %d entries", c.Len())
	}
}
