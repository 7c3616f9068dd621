package flowgraph

import (
	"context"
	"runtime"
	"sync"
)

// EnumerateAllContext runs EnumeratePathsDedup for every flow of the
// network on a worker pool and merges the per-flow results in flow order.
// Each flow's enumeration is independent and deterministic, so the output
// is byte-identical for any worker count — the property the
// route-synthesis golden tests pin. budgets holds one hop budget per flow
// (0 means unbounded); maxPaths caps the deduplicated candidates per flow
// (0 means uncapped); workers <= 0 uses GOMAXPROCS.
//
// No new per-flow enumeration starts once ctx is done, and the call
// returns ctx.Err() after the in-flight ones finish. The partial result
// is discarded (nil) on cancellation — a route selector cannot use a
// candidate table with holes.
//
// Each worker owns one enumeration scratch for all the flows it takes, so
// the enumeration allocates the candidate paths and little else.
func (g *Graph) EnumerateAllContext(ctx context.Context, budgets []int, maxPaths, workers int) ([][]Path, error) {
	n := len(g.flows)
	if len(budgets) != n {
		panic("flowgraph: EnumerateAllContext needs one budget per flow")
	}
	out := make([][]Path, n)
	if n == 0 {
		return out, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		var s enumScratch
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out[i] = g.enumerate(&s, i, budgets[i], maxPaths)
		}
		return out, nil
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s enumScratch
			for i := range idx {
				out[i] = g.enumerate(&s, i, budgets[i], maxPaths)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
