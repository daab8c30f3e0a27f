// Concurrent queries: build one graph, warm one long-lived session with its
// shared substrates, then answer several queries at once — two maximal
// independent sets, a maximal matching and a connected components run — as
// concurrent jobs sharing the session's worker pool and resident stores.
// Every job returns exactly what the one-shot entry points (ampcgraph.MIS,
// ...) return for the same graph and seed; sharing a session changes where
// the work happens, never what is computed.
package main

import (
	"fmt"
	"log"
	"sync"

	"ampcgraph"
)

func main() {
	// A ring of triangles: enough structure that every query has real work.
	const clusters = 40
	b := ampcgraph.NewBuilder(3 * clusters)
	for c := 0; c < clusters; c++ {
		v := ampcgraph.NodeID(3 * c)
		b.AddEdge(v, v+1)
		b.AddEdge(v+1, v+2)
		b.AddEdge(v, v+2)
		b.AddEdge(v+2, ampcgraph.NodeID((3*c+3)%(3*clusters)))
	}
	g := b.Build()

	cfg := ampcgraph.Config{Machines: 4, Threads: 2, Seed: 42}

	// One session holds the pool and the stores for every query below.
	session := ampcgraph.NewSession(cfg)
	defer session.Close()

	// A preparation job shuffles the graph into the session's resident
	// stores once; every subsequent query job reuses them.
	prep, err := session.NewJob()
	if err != nil {
		log.Fatal(err)
	}
	misShared, err := ampcgraph.NewMISShared(prep, g)
	if err != nil {
		log.Fatal(err)
	}
	mmShared, err := ampcgraph.NewMatchingShared(prep, g)
	if err != nil {
		log.Fatal(err)
	}
	prep.Close()

	// Four queries, concurrently, on one pool and one set of resident
	// stores.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		misSizes []int
		mmEdges  int
		ccCount  int
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, err := session.NewJob()
			if err != nil {
				fail(err)
				return
			}
			defer job.Close()
			res, err := misShared.Run(job)
			if err != nil {
				fail(err)
				return
			}
			size := 0
			for _, in := range res.InMIS {
				if in {
					size++
				}
			}
			mu.Lock()
			misSizes = append(misSizes, size)
			mu.Unlock()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		job, err := session.NewJob()
		if err != nil {
			fail(err)
			return
		}
		defer job.Close()
		res, err := mmShared.Run(job)
		if err != nil {
			fail(err)
			return
		}
		mu.Lock()
		mmEdges = len(res.Matching.Edges())
		mu.Unlock()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		job, err := session.NewJob()
		if err != nil {
			fail(err)
			return
		}
		defer job.Close()
		res, err := ampcgraph.ConnectedComponentsOn(job, g)
		if err != nil {
			fail(err)
			return
		}
		mu.Lock()
		ccCount = res.NumComponents
		mu.Unlock()
	}()
	wg.Wait()
	if firstErr != nil {
		log.Fatal(firstErr)
	}

	if len(misSizes) != 2 || misSizes[0] != misSizes[1] {
		log.Fatalf("concurrent MIS queries disagreed: %v", misSizes)
	}
	// The one-shot entry point must agree with the session jobs.
	ref, err := ampcgraph.MIS(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	refSize := 0
	for _, in := range ref.InMIS {
		if in {
			refSize++
		}
	}
	if refSize != misSizes[0] {
		log.Fatalf("session MIS size %d != one-shot size %d", misSizes[0], refSize)
	}

	fmt.Printf("graph: %d vertices, %d edges\n", g.NumNodes(), g.NumEdges())
	fmt.Printf("4 concurrent jobs on one session:\n")
	fmt.Printf("  MIS size (both queries): %d\n", misSizes[0])
	fmt.Printf("  maximal matching edges:  %d\n", mmEdges)
	fmt.Printf("  connected components:    %d\n", ccCount)
}
