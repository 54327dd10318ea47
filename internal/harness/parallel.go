package harness

import (
	"sync"
	"sync/atomic"
)

// The experiment sweeps decompose into independent (p, seed, probe)
// cells: each cell builds its own network, recorder and random generator
// from the cell coordinates, exactly as the sequential loops always did.
// Running cells on a worker pool therefore reorders only wall-clock
// completion — never a seeded draw, never the assembly order of result
// rows — so sequential and parallel sweeps are byte-identical
// (TestParallelMatchesSequential pins this).

// forEach runs cell(0) … cell(n-1) over the given number of workers (<= 1
// is the sequential loop) and returns the results in index order. Every
// cell must be independent of the others. On failure the lowest-indexed
// error is returned, matching what the sequential loop would have
// reported first. Sweeps may nest forEach (a per-order sweep over
// per-requester cells); the pool is per call, so nesting briefly
// overcommits workers rather than deadlocking.
func forEach[T any](workers, n int, cell func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range out {
			v, err := cell(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		errIdx   = -1
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := cell(i)
				if err != nil {
					mu.Lock()
					if errIdx == -1 || i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
