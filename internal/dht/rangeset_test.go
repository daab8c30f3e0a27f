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

func (o oracleSet) overlaps(p oracleSet) bool {
	for k := range o.in {
		if o.in[k] && p.in[k] {
			return true
		}
	}
	return false
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
		spans := r.Spans()
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
		aSpans := randomSpans(rng, rng.Intn(6))
		bSpans := randomSpans(rng, rng.Intn(6))
		aWhole := rng.Intn(10) == 0
		bWhole := rng.Intn(10) == 0

		a, b := NewRangeSet(aSpans...), NewRangeSet(bSpans...)
		if aWhole {
			a = WholeRange()
		}
		if bWhole {
			b = WholeRange()
		}
		ao, bo := oracleFromSpans(aWhole, aSpans), oracleFromSpans(bWhole, bSpans)

		checkAgainstOracle(t, a, ao)
		checkAgainstOracle(t, b, bo)

		if got, want := a.Overlaps(b), ao.overlaps(bo); got != want {
			t.Fatalf("%v.Overlaps(%v) = %v, oracle %v", a, b, got, want)
		}
		if a.Overlaps(b) != b.Overlaps(a) {
			t.Fatalf("Overlaps not symmetric: %v vs %v", a, b)
		}

		union := a.Union(b)
		inter := a.Intersect(b)
		var uo, io oracleSet
		uo.whole = ao.whole || bo.whole
		io.whole = ao.whole && bo.whole
		for k := range uo.in {
			uo.in[k] = ao.in[k] || bo.in[k]
			io.in[k] = ao.in[k] && bo.in[k]
		}
		// Union of limited sets is limited; it can only be Whole via inputs.
		if union.Whole() != uo.whole {
			t.Fatalf("%v.Union(%v).Whole() = %v, want %v", a, b, union.Whole(), uo.whole)
		}
		for k := uint64(0); k < oracleUniverse; k++ {
			if union.Contains(k) != uo.in[k] {
				t.Fatalf("%v.Union(%v).Contains(%d) = %v, oracle %v", a, b, k, union.Contains(k), uo.in[k])
			}
			if inter.Contains(k) != io.in[k] {
				t.Fatalf("%v.Intersect(%v).Contains(%d) = %v, oracle %v", a, b, k, inter.Contains(k), io.in[k])
			}
		}
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
	if empty.Overlaps(whole) || whole.Overlaps(empty) {
		t.Fatal("empty set overlaps nothing, not even the whole keyspace")
	}
	if !whole.Overlaps(whole) {
		t.Fatal("whole overlaps whole")
	}
	// NewRangeSet of only empty spans is empty.
	if s := NewRangeSet(Span{5, 5}, Span{9, 3}); !s.Empty() {
		t.Fatalf("empty spans produced %v", s)
	}
	// Adjacent boundaries merge; [3,5) and [5,7) share no key but coalesce.
	adj := NewRangeSet(Span{3, 5}, Span{5, 7})
	if got := adj.Spans(); len(got) != 1 || got[0] != (Span{3, 7}) {
		t.Fatalf("adjacent spans not merged: %v", adj)
	}
	if adj.Overlaps(NewRangeSet(Span{0, 3})) {
		t.Fatal("adjacent-but-disjoint spans must not overlap")
	}
	if !adj.Overlaps(NewRangeSet(Span{6, 100})) {
		t.Fatal("overlap at the last key missed")
	}
	// Union/Intersect with whole.
	lim := NewRangeSet(Span{10, 20})
	if !lim.Union(whole).Whole() {
		t.Fatal("union with whole must be whole")
	}
	if got := whole.Intersect(lim); got.Whole() || !got.Contains(15) || got.Contains(9) {
		t.Fatalf("whole ∩ limited = %v", got)
	}
}

// FuzzRangeSet decodes spans from raw bytes and cross-checks Contains,
// Overlaps and Intersect against the linear-scan oracle, exercising empty
// spans, adjacent boundaries and the whole-keyspace fallback.
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
		ao, bo := oracleFromSpans(false, aSpans), oracleFromSpans(false, bSpans)

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
		if got, want := a.Overlaps(b), ao.overlaps(bo); got != want {
			t.Fatalf("Overlaps = %v, oracle %v (%v vs %v)", got, want, a, b)
		}
		inter := a.Intersect(b)
		union := a.Union(b)
		for k := uint64(0); k < 256; k++ {
			wantI := contains(aSpans, k) && contains(bSpans, k)
			wantU := contains(aSpans, k) || contains(bSpans, k)
			if inter.Contains(k) != wantI {
				t.Fatalf("Intersect.Contains(%d) = %v, oracle %v", k, inter.Contains(k), wantI)
			}
			if union.Contains(k) != wantU {
				t.Fatalf("Union.Contains(%d) = %v, oracle %v", k, union.Contains(k), wantU)
			}
		}
		// The whole-keyspace fallback overlaps anything non-empty.
		if WholeRange().Overlaps(a) != !a.Empty() {
			t.Fatalf("whole.Overlaps(%v) mismatch", a)
		}
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
