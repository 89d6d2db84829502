// Package xpar is the worker pool of the write path: the fan-out of
// every write (storage.Values.Store's classify, train and encode
// stages, storage.DecodeValues' per-container decode) and the loading
// of a segment set's files (partition.Open), each on GOMAXPROCS
// workers. Queries use none: each runs on its caller's goroutine. It
// provides one primitive — ForEach, an index-space fan-out with
// first-error cancellation.
//
// Determinism contract: ForEach assigns work by index, and callers
// place results by index (one slice cell per work unit), so the output
// order is the index order regardless of worker count or scheduling.
// Every fan-out built on it must therefore produce output byte-identical
// to its serial form.
package xpar

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0..n-1) on up to `workers` goroutines, pulling
// indexes from a shared counter. The first error cancels the remaining
// work: workers finish the item in hand and stop claiming new ones.
// Result placement is the caller's job (write into a slice cell per
// index), which is what keeps parallel evaluation deterministic: the
// output order is the index order, never the completion order.
// workers <= 1 (or n <= 1) degenerates to a plain serial loop on the
// calling goroutine with zero overhead.
func ForEach(workers, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next  atomic.Int64
		stop  atomic.Bool
		once  sync.Once
		first error
		wg    sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					once.Do(func() { first = err })
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
