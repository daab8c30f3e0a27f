package msf

import (
	"fmt"
	"sync"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
)

// Batched PrimSearch and PointerJump rounds (Config.Batch).
//
// A truncated Prim search expands one vertex at a time, so the single-key
// driver pays one key-value round trip per expansion.  The batched round
// keeps one search state (primState, prim.go) per start vertex of a block
// and drives them as pull-based iterators (ampc.Stream): each search runs
// until it accepts a vertex whose adjacency list is not locally known, the
// block's missing lists are fetched with one shard-grouped ReadMany, and the
// searches continue exactly where they stopped.  Both drivers run the same
// primState, so the discovered forest is identical.

// batchPrimRound builds the streaming PrimSearch round over blocks of start
// vertices, handing every search's outcome to commit (called under the
// caller's lock); the caller runs it (or stages it into a pipeline).
func batchPrimRound(rt *ampc.Job, name string, store *dht.Store,
	sorted []codec.WeightedList, prio []uint64, budget int,
	mu *sync.Mutex, commit func(start graph.NodeID, out *primOutcome)) ampc.Round {
	n := len(sorted)
	size := rt.Config().BatchSize
	// A worker's slab of search states, one per block slot, reused across
	// the blocks it runs once commit has copied their outcomes.
	var slabs sync.Pool
	return ampc.Round{
		Name:        name,
		Items:       ampc.NumBlocks(n, size),
		Read:        store,
		Partitioner: rt.BlockOwnerPartitioner(size, n),
		Body: func(ctx *ampc.Ctx, block int) error {
			lo, hi := ampc.BlockBounds(block, size, n)
			// Lists known to the block, shared by its searches.  Seeded
			// with the block's own lists so intra-block expansions do not
			// refetch data already in memory.
			lists := make(map[graph.NodeID]codec.WeightedList, hi-lo)
			for v := lo; v < hi; v++ {
				lists[graph.NodeID(v)] = sorted[v]
			}
			slab, _ := slabs.Get().(*[]primState)
			if slab == nil {
				slab = new([]primState)
			}
			if len(*slab) < hi-lo {
				*slab = make([]primState, size)
			}
			states := (*slab)[:hi-lo]
			its := make([]ampc.Iterator, 0, hi-lo)
			for i := range states {
				st := &states[i]
				st.reset(prio, budget, graph.NodeID(lo+i), sorted[lo+i])
				its = append(its, ampc.PullFunc(func() (uint64, bool) {
					for miss := st.next(); miss != graph.None; miss = st.next() {
						list, ok := lists[miss]
						if !ok {
							return uint64(miss), true
						}
						st.absorb(list)
					}
					return 0, false
				}))
			}
			err := ctx.Stream(0, its,
				func(k uint64, raw []byte, ok bool) error {
					list, err := viewFetched(k, raw, ok)
					if err != nil {
						return err
					}
					lists[graph.NodeID(k)] = list
					return nil
				})
			if err != nil {
				return err
			}
			work := 0
			mu.Lock()
			for i := range states {
				work += states[i].work
				commit(states[i].start, &states[i].out)
			}
			mu.Unlock()
			slabs.Put(slab)
			ctx.ChargeCompute(work)
			return nil
		},
	}
}

// batchChaseRound builds the streaming pointer chase of PointerJump: every
// vertex of a block is a pull-based iterator that follows its parent chain
// through the pointers fetched so far and suspends on the first unknown one;
// each cycle fetches the block's missing pointers as one shard-grouped
// batch.  Fetched pointers persist for the whole block, so a chain hops
// through already-known pointers without suspending again.
func batchChaseRound(rt *ampc.Job, name string, store *dht.Store, n int,
	roots []graph.NodeID, chains []int) ampc.Round {
	size := rt.Config().BatchSize
	return ampc.Round{
		Name:        name,
		Items:       ampc.NumBlocks(n, size),
		Read:        store,
		Partitioner: rt.BlockOwnerPartitioner(size, n),
		Body: func(ctx *ampc.Ctx, block int) error {
			lo, hi := ampc.BlockBounds(block, size, n)
			parentOf := make(map[graph.NodeID]graph.NodeID, hi-lo)
			var chaseErr error
			its := make([]ampc.Iterator, 0, hi-lo)
			for v := lo; v < hi; v++ {
				item := v
				cur := graph.NodeID(v)
				steps := 0
				its = append(its, ampc.PullFunc(func() (uint64, bool) {
					for {
						p, ok := parentOf[cur]
						if !ok {
							return uint64(cur), true
						}
						if p == cur {
							roots[item] = cur
							chains[item] = steps
							return 0, false
						}
						cur = p
						steps++
						if steps > n {
							if chaseErr == nil {
								chaseErr = fmt.Errorf("msf: pointer chain from %d does not terminate", item)
							}
							return 0, false
						}
					}
				}))
			}
			err := ctx.Stream(0, its, func(k uint64, raw []byte, ok bool) error {
				if !ok {
					return fmt.Errorf("msf: missing parent pointer for %d", k)
				}
				p, err := codec.DecodeNodeID(raw)
				if err != nil {
					return err
				}
				parentOf[graph.NodeID(k)] = p
				return nil
			})
			if err != nil {
				return err
			}
			return chaseErr
		},
	}
}
