package partition

import (
	"context"
	"sync"
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
	q.items = append(q.items, it)
	q.mu.Unlock()
	q.wake()
}

// closeWith marks the stream finished (err == nil: clean end).
func (q *queue) closeWith(err error) {
	q.mu.Lock()
	q.closed, q.err = true, err
	q.mu.Unlock()
	q.wake()
}

func (q *queue) wake() {
	select {
	case q.signal <- struct{}{}:
	default:
	}
}

// pop blocks until an item, the close, or ctx expiry. A non-nil err is
// the close error or the context's error; ok=false with err=nil is a
// clean end of stream.
func (q *queue) pop(ctx context.Context) (Item, bool, error) {
	for {
		q.mu.Lock()
		if q.head < len(q.items) {
			it := q.items[q.head]
			q.items[q.head] = Item{}
			q.head++
			if q.head == len(q.items) {
				q.items = q.items[:0]
				q.head = 0
			}
			q.mu.Unlock()
			return it, true, nil
		}
		closed, err := q.closed, q.err
		q.mu.Unlock()
		if closed {
			return Item{}, false, err
		}
		select {
		case <-q.signal:
		case <-ctx.Done():
			return Item{}, false, ctx.Err()
		}
	}
}
