package machine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunForks runs n indexed tasks — typically one measurement each, on its own
// Forker fork — over a pool of at most workers goroutines (<= 0 means
// GOMAXPROCS). newWorker is called once per worker, on the caller's
// goroutine before any task starts, and returns that worker's task; the
// closure may keep worker-local state such as scratch buffers and running
// sums. Indices are handed out in ascending order.
//
// The pool fails fast: after the first task error, or once ctx is done, no
// further index starts. A cancelled run returns ctx.Err(); otherwise RunForks
// returns the error of the lowest failing index, or nil.
func RunForks(ctx context.Context, workers, n int, newWorker func() func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		task := newWorker()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				if err := task(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}
