package partition

import (
	"context"
	"sync"
	"time"
)

// queue is the unbounded SPSC buffer between one shard's puller
// goroutine and the merge cursor. Unbounded is load-bearing, not lazy:
// the merge consumes shards in rank order while the fan-out runs
// shards under a bounded worker budget, so a bounded buffer could fill
// on a running shard while the merge waits for a shard whose slot has
// not been scheduled yet — a deadlock. Workers therefore never block
// on push; memory is bounded by the per-shard result size, the same
// bound a sequential shard-at-a-time evaluation would have.
type queue struct {
	mu     sync.Mutex
	items  []Item
	head   int
	closed bool
	err    error
	// signal has capacity 1: push/close make it readable, pop drains it
	// and re-checks state, so a waiter never misses a transition.
	signal chan struct{}
}

func newQueue() *queue {
	return &queue{signal: make(chan struct{}, 1)}
}

func (q *queue) push(it Item) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, it)
	q.mu.Unlock()
	q.wake()
}

// closeWith marks the stream finished (err == nil: clean end). The
// first close wins; later calls are no-ops, so the coordinator can
// sweep-close every queue after a fan-out failure without clobbering
// the root cause recorded by the shard that actually failed.
func (q *queue) closeWith(err error) {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		q.err = err
	}
	q.mu.Unlock()
	q.wake()
}

func (q *queue) wake() {
	select {
	case q.signal <- struct{}{}:
	default:
	}
}

// tryPop returns the next item without blocking. done reports a closed
// and drained queue (with its close error).
func (q *queue) tryPop() (it Item, ok, done bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head < len(q.items) {
		it = q.items[q.head]
		q.items[q.head] = Item{}
		q.head++
		if q.head == len(q.items) {
			q.items = q.items[:0]
			q.head = 0
		}
		return it, true, false, nil
	}
	if q.closed {
		return Item{}, false, true, q.err
	}
	return Item{}, false, false, nil
}

// pop blocks until an item, the close, or ctx expiry. A non-nil err is
// the close error or the context's error; ok=false with err=nil is a
// clean end of stream.
func (q *queue) pop(ctx context.Context) (Item, bool, error) {
	it, ok, _, err := q.popTimeout(ctx, nil)
	return it, ok, err
}

// popTimeout is pop with an optional deadline channel (the hedging
// timer): timedOut=true means the timer fired before an item or close.
func (q *queue) popTimeout(ctx context.Context, timeout <-chan time.Time) (it Item, ok bool, timedOut bool, err error) {
	for {
		it, ok, done, err := q.tryPop()
		if ok || done {
			return it, ok, false, err
		}
		select {
		case <-q.signal:
		case <-timeout:
			return Item{}, false, true, nil
		case <-ctx.Done():
			return Item{}, false, false, ctx.Err()
		}
	}
}
