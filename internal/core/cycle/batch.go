package cycle

import (
	"fmt"
	"sync"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
)

// Batched Walk round (Config.Batch).
//
// Each sampled vertex walks the cycle in both directions; every step of the
// single-key implementation is one key-value round trip.  The batched round
// drives all of a block's walks as pull-based iterators (ampc.Stream) — one
// shard-grouped batch read per cycle serves every walk in the block — and a
// per-block memo of the fetched adjacency lists means a cycle segment shared
// by two walks is fetched once.  The walks themselves are unchanged, so the
// contracted multigraph (and the 1-vs-2 answer) is identical to the
// unbatched run.
//
// Blocks are cut from the sample list at ownership boundaries
// (ampc.OwnerCutBlocks) and run on the owner of their samples, so every
// machine owning a sample walks — a sample list shorter than BatchSize is
// otherwise one block on one machine — and, where a machine owns a whole
// cycle, every adjacency record it fetches is its own.

// blockWalks is what the walks of one block share: the memo of fetched
// adjacency lists (two neighbours per vertex, stored by value) and the first
// walk error.
type blockWalks struct {
	ctx     *ampc.Ctx
	n       int
	sampled []bool
	adj     map[graph.NodeID][2]graph.NodeID
	mu      *sync.Mutex
	report  func(start, end graph.NodeID, steps int)
	err     error
}

// walker is one walk from a sample, as a pull-based iterator.
type walker struct {
	b                *blockWalks
	start, prev, cur graph.NodeID
	steps            int
}

// Pull walks on through the memo until the next sample (done) or a vertex
// whose adjacency list has not been fetched (suspended on it), charging one
// unit of compute per step taken.
func (w *walker) Pull() (uint64, bool) {
	from := w.steps
	key, suspended := w.advance()
	w.b.ctx.ChargeCompute(w.steps - from)
	return key, suspended
}

func (w *walker) advance() (uint64, bool) {
	b := w.b
	for !b.sampled[w.cur] {
		nbrs, ok := b.adj[w.cur]
		if !ok {
			return uint64(w.cur), true
		}
		next := nbrs[0]
		if next == w.prev {
			next = nbrs[1]
		}
		w.prev, w.cur = w.cur, next
		w.steps++
		if w.steps > b.n+1 {
			if b.err == nil {
				b.err = fmt.Errorf("cycle: walk from %d did not terminate", w.start)
			}
			return 0, false
		}
	}
	b.mu.Lock()
	b.report(w.start, w.cur, w.steps)
	b.mu.Unlock()
	return 0, false
}

// batchWalkRound builds the round that walks from every sample of a block
// as streaming iterators, reporting each finished walk through report
// (called under mu); the caller runs it (or stages it into a pipeline).
func batchWalkRound(rt *ampc.Job, store *dht.Store, g *graph.Graph,
	samples []graph.NodeID, sampled []bool, mu *sync.Mutex,
	report func(start, end graph.NodeID, steps int)) ampc.Round {
	n := g.NumNodes()
	blocks := rt.OwnerCutBlocks(rt.Config().BatchSize, len(samples), n,
		func(i int) int { return int(samples[i]) })
	return ampc.Round{
		Name:        "walk",
		Items:       len(blocks),
		Read:        store,
		Partitioner: func(block int) int { return blocks[block].Machine },
		Body: func(ctx *ampc.Ctx, block int) error {
			lo, hi := blocks[block].Lo, blocks[block].Hi
			// Fetched lists persist for the whole block, so the two walks
			// covering one cycle segment in opposite directions fetch each
			// vertex of the segment only once.
			b := &blockWalks{ctx: ctx, n: n, sampled: sampled, mu: mu, report: report,
				adj: make(map[graph.NodeID][2]graph.NodeID)}
			walkers := make([]walker, 0, 2*(hi-lo)) // every vertex has degree 2
			for i := lo; i < hi; i++ {
				start := samples[i]
				for _, first := range g.Neighbors(start) {
					walkers = append(walkers, walker{b: b, start: start, prev: start, cur: first, steps: 1})
				}
			}
			its := make([]ampc.Iterator, len(walkers))
			for i := range walkers {
				its[i] = &walkers[i]
			}
			err := ctx.Stream(0, its, func(k uint64, raw []byte, ok bool) error {
				if !ok {
					return fmt.Errorf("cycle: vertex %d missing from the key-value store", k)
				}
				nbrs, err := codec.ViewNodeIDs(raw)
				if err != nil {
					return err
				}
				if nbrs.Len() != 2 {
					return fmt.Errorf("cycle: vertex %d has %d neighbours in the key-value store, want 2", k, nbrs.Len())
				}
				b.adj[graph.NodeID(k)] = [2]graph.NodeID{nbrs.At(0), nbrs.At(1)}
				return nil
			})
			if err != nil {
				return err
			}
			return b.err
		},
	}
}
