package dht

import (
	"fmt"
	"sort"
	"strings"
)

// Span is a half-open key interval [Lo, Hi).  A span with Hi <= Lo is empty.
type Span struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// Empty reports whether the span covers no keys.
func (s Span) Empty() bool { return s.Hi <= s.Lo }

// Contains reports whether key lies inside the span.
func (s Span) Contains(key uint64) bool { return key >= s.Lo && key < s.Hi }

// RangeSet is a set of key spans: the keys a rebalance moved between owners
// (ChangedSpans), which Cache.InvalidateRange drops.  The zero value is the
// *whole* keyspace.  NewRangeSet builds a limited set; an explicitly limited
// set with no spans is empty.
type RangeSet struct {
	limited bool
	spans   []Span // normalized: sorted by Lo, non-empty, disjoint, non-adjacent
}

// WholeRange returns the unlimited set covering every key (the zero value).
func WholeRange() RangeSet { return RangeSet{} }

// EmptyRange returns the limited set covering no keys.
func EmptyRange() RangeSet { return RangeSet{limited: true} }

// NewRangeSet builds a limited set from the given spans, normalizing them:
// empty spans are dropped, overlapping and adjacent spans are merged, and
// the result is sorted by Lo.
func NewRangeSet(spans ...Span) RangeSet {
	kept := make([]Span, 0, len(spans))
	for _, s := range spans {
		if !s.Empty() {
			kept = append(kept, s)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Lo != kept[j].Lo {
			return kept[i].Lo < kept[j].Lo
		}
		return kept[i].Hi < kept[j].Hi
	})
	merged := kept[:0]
	for _, s := range kept {
		if n := len(merged); n > 0 && s.Lo <= merged[n-1].Hi {
			if s.Hi > merged[n-1].Hi {
				merged[n-1].Hi = s.Hi
			}
			continue
		}
		merged = append(merged, s)
	}
	return RangeSet{limited: true, spans: merged}
}

// Whole reports whether the set covers the entire keyspace (the zero value).
func (r RangeSet) Whole() bool { return !r.limited }

// Empty reports whether the set covers no keys at all.
func (r RangeSet) Empty() bool { return r.limited && len(r.spans) == 0 }

// Contains reports whether key lies inside the set.
func (r RangeSet) Contains(key uint64) bool {
	if !r.limited {
		return true
	}
	// First span with Hi > key; it is the only candidate.
	i := sort.Search(len(r.spans), func(i int) bool { return key < r.spans[i].Hi })
	return i < len(r.spans) && r.spans[i].Contains(key)
}

// String renders the set for diagnostics.
func (r RangeSet) String() string {
	if !r.limited {
		return "[whole]"
	}
	if len(r.spans) == 0 {
		return "[empty]"
	}
	var b strings.Builder
	for i, s := range r.spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "[%d,%d)", s.Lo, s.Hi)
	}
	return b.String()
}
