package experiments

import (
	"runtime"
	"sync"
)

// Sweep runs n independent experiment points concurrently on a bounded
// worker pool. Each point owns its own simulator (simulations share
// nothing), so sweeps parallelize perfectly across cores — this is what
// makes regenerating the full Figure 4 (right) r-sweep fast on a laptop,
// standing in for the paper's fleet of physical testbed runs.
//
// run(i) produces the i-th point; results keep their index order. The first
// error (if any) is returned after every worker drains, and stops the
// dispatcher: points not yet handed to a worker never run (already-running
// points finish — a simulation cannot be usefully interrupted midway).
func Sweep(n int, run func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	stop := make(chan struct{})
	var stopOnce sync.Once
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := run(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					stopOnce.Do(func() { close(stop) })
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-stop:
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return firstErr
}
