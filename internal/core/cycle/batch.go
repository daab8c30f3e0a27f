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
// shard-grouped ReadMany per cycle serves every walk in the block — and a
// per-block map of decoded adjacency lists means a cycle segment shared by
// two walks is fetched once.  The walks themselves are unchanged, so the
// contracted multigraph (and the 1-vs-2 answer) is identical to the
// unbatched run.

// batchWalkRound builds the round that walks from every sample of a block
// as streaming iterators, reporting each finished walk through report
// (called under mu); the caller runs it (or stages it into a pipeline).
func batchWalkRound(rt *ampc.Runtime, store *dht.Store, g *graph.Graph,
	samples []graph.NodeID, sampled []bool, mu *sync.Mutex,
	report func(start, end graph.NodeID, steps int)) ampc.Round {
	n := g.NumNodes()
	size := rt.Config().BatchSize
	owner := rt.OwnerPartitioner(n)
	return ampc.Round{
		Name:  "walk",
		Items: ampc.NumBlocks(len(samples), size),
		Read:  store,
		// Assign each block of samples to the machine owning the block's
		// first sample vertex, mirroring the unbatched walk round.
		Partitioner: func(block int) int {
			lo, _ := ampc.BlockBounds(block, size, len(samples))
			return owner(int(samples[lo]))
		},
		Body: func(ctx *ampc.Ctx, block int) error {
			lo, hi := ampc.BlockBounds(block, size, len(samples))
			type walker struct {
				start, prev, cur graph.NodeID
				steps            int
			}
			finish := func(w *walker) {
				mu.Lock()
				report(w.start, w.cur, w.steps)
				mu.Unlock()
			}
			// Fetched lists persist for the whole block, so the two walks
			// covering one cycle segment in opposite directions fetch each
			// vertex of the segment only once.
			adj := make(map[graph.NodeID][]graph.NodeID)
			var walkErr error
			var its []ampc.Iterator
			for i := lo; i < hi; i++ {
				start := samples[i]
				for _, first := range g.Neighbors(start) {
					w := &walker{start: start, prev: start, cur: first, steps: 1}
					its = append(its, ampc.PullFunc(func() (uint64, bool) {
						for {
							if sampled[w.cur] {
								finish(w)
								return 0, false
							}
							nbrs, ok := adj[w.cur]
							if !ok {
								return uint64(w.cur), true
							}
							next := nbrs[0]
							if next == w.prev {
								next = nbrs[1]
							}
							w.prev, w.cur = w.cur, next
							w.steps++
							ctx.ChargeCompute(1)
							if w.steps > n+1 {
								if walkErr == nil {
									walkErr = fmt.Errorf("cycle: walk from %d did not terminate", w.start)
								}
								return 0, false
							}
						}
					}))
				}
			}
			err := ctx.Stream(0, its, func(k uint64, raw []byte, ok bool) error {
				if !ok {
					return fmt.Errorf("cycle: vertex %d missing from the key-value store", k)
				}
				nbrs, err := codec.DecodeNodeIDs(raw)
				if err != nil {
					return err
				}
				adj[graph.NodeID(k)] = nbrs
				return nil
			})
			if err != nil {
				return err
			}
			return walkErr
		},
	}
}
