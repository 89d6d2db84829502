package partition

import (
	"context"
	"errors"
	"sync"
	"time"

	"xquec/internal/xpar"
)

// Options configures the fan-out of one scattered evaluation. It only
// applies to interleaved (shard) sets; contiguous parts are pulled
// inline and are always fail-fast.
type Options struct {
	// Partial selects the partial-results policy: false (fail-fast)
	// aborts the whole query on the first shard failure; true drops the
	// failing shard's remaining items, keeps merging the healthy shards,
	// and flags the cursor (Cursor.Partial). Context expiry is never
	// partial — a deadline fails the query under either policy.
	Partial bool
	// HedgeAfter re-dispatches a shard whose stream has produced nothing
	// for this long ("straggler hedging"): a second evaluation of the
	// same request starts on the same worker, the first stream to
	// deliver wins, the loser is cancelled. Results are identical either
	// way — both streams compute the same rank-stamped items. 0 disables.
	HedgeAfter time.Duration
	// Fanout bounds how many shards evaluate concurrently (xpar worker
	// budget). 0 or >= shard count means all shards at once.
	Fanout int
}

// Worker evaluates requests against one part. Implementations must
// allow concurrent Query calls (the fan-out hedges stragglers by
// re-dispatching to the same worker). The interface is deliberately
// RPC-shaped: everything in is serializable, everything out is
// (rank, bytes) pairs.
type Worker interface {
	// Query starts an evaluation. ctx cancellation must abort it.
	Query(ctx context.Context, req Request) (Stream, error)
}

// inprocWorker evaluates against the local part store. It keeps no
// per-query state: programs come from the request's per-store lookup.
type inprocWorker struct {
	set  *Set
	part int
}

func (w *inprocWorker) Query(ctx context.Context, req Request) (Stream, error) {
	return w.set.openPart(ctx, w.part, req)
}

// FanOut starts the bounded concurrent evaluation of req on every
// worker and returns the merging cursor. Evaluation is lazy per stream
// but eager in dispatch: workers begin evaluating (into their unbounded
// queues) as the fan-out schedules them, regardless of merge progress.
// It is stateless across queries and safe for concurrent calls.
func FanOut(ctx context.Context, workers []Worker, req Request, opts Options) *Cursor {
	if ctx == nil {
		ctx = context.Background()
	}
	counters.scatterQueries.Add(1)

	cctx, cancel := context.WithCancel(ctx)
	n := len(workers)
	queues := make([]*queue, n)
	streams := make([]Stream, n)
	for i := range queues {
		queues[i] = newQueue()
		streams[i] = queueStream{q: queues[i], ctx: cctx}
	}
	cur := &Cursor{streams: streams, cancel: cancel, partial: opts.Partial}
	fanout := opts.Fanout
	if fanout <= 0 || fanout > n {
		fanout = n
	}
	go func() {
		err := xpar.ForEach(fanout, n, func(i int) error {
			return runPart(cctx, workers[i], queues[i], req, opts)
		})
		if err != nil {
			// Fail-fast root cause: record it, wake every waiter, and
			// sweep-close all queues (parts the fan-out never started
			// would otherwise leave the merge waiting forever). closeWith
			// keeps the first close, so parts that already failed or
			// finished keep their own terminal state. The merge reports the
			// root cause in preference to the sweep errors derived from it.
			cur.root.set(err)
			cancel()
			for _, q := range queues {
				q.closeWith(err)
			}
		}
	}()
	return cur
}

// queueStream is the merge's view of one fanned-out part: the consumer
// end of the queue its puller goroutine fills.
type queueStream struct {
	q   *queue
	ctx context.Context
}

func (s queueStream) Next() (Item, bool, error) { return s.q.pop(s.ctx) }

// Close is a no-op: cancelling the fan-out context releases the puller.
func (s queueStream) Close() error { return nil }

// runPart evaluates one part into its queue, applying the hedging and
// partial-results policies. A returned error aborts the fan-out
// (fail-fast); nil keeps the other parts running.
func runPart(ctx context.Context, w Worker, out *queue, req Request, opts Options) error {
	counters.shardStreams.Add(1)
	var err error
	if opts.HedgeAfter > 0 {
		err = pumpHedged(ctx, w, out, req, opts)
	} else {
		err = pump(ctx, w, out, req)
	}
	if err != nil {
		counters.shardFailures.Add(1)
		out.closeWith(err)
		if opts.Partial && !isCtxErr(err) {
			return nil // isolate: the cursor drops this part, others proceed
		}
		return err
	}
	out.closeWith(nil)
	return nil
}

// pump is the non-hedged path: evaluate synchronously on the fan-out
// goroutine, pushing into the (unbounded) queue.
func pump(ctx context.Context, w Worker, out *queue, req Request) error {
	st, err := w.Query(ctx, req)
	if err != nil {
		return err
	}
	defer st.Close()
	for {
		it, ok, err := st.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		out.push(it)
	}
}

// pullInto runs one stream to completion into a private queue; used by
// the hedged path, where the elector must be able to observe "no first
// item yet" while the stream is still working.
func pullInto(ctx context.Context, w Worker, req Request, q *queue) {
	q.closeWith(pump(ctx, w, q, req))
}

// pumpHedged races a primary stream against a hedge launched after
// HedgeAfter of first-item silence. The first stream to reach a
// decision — an item, a clean end, or (if the other has already
// failed) an error — wins and is drained into out; the loser's context
// is cancelled. Both streams evaluate the same deterministic request,
// so the winner's identity never changes the merged result.
func pumpHedged(ctx context.Context, w Worker, out *queue, req Request, opts Options) error {
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	qp := newQueue()
	go pullInto(pctx, w, req, qp)

	timer := time.NewTimer(opts.HedgeAfter)
	defer timer.Stop()
	it, ok, timedOut, err := qp.popTimeout(ctx, timer.C)
	if !timedOut {
		// The primary decided before the hedge threshold.
		if err != nil {
			return err
		}
		if !ok {
			return nil // clean empty stream
		}
		out.push(it)
		return drain(ctx, qp, out)
	}

	counters.hedgesLaunched.Add(1)
	counters.shardStreams.Add(1)
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	qh := newQueue()
	go pullInto(hctx, w, req, qh)

	// Election: poll both queues; first decision wins. An error is only
	// a decision once the other stream has also failed (a failed primary
	// with a healthy hedge is exactly the case hedging exists for).
	var perr, herr error
	pFailed, hFailed := false, false
	for {
		if !pFailed {
			if it, ok, done, err := qp.tryPop(); ok || done {
				if !ok && done && err != nil {
					pFailed, perr = true, err
				} else {
					hcancel()
					first(it, ok, out)
					return drain(ctx, qp, out)
				}
			}
		}
		if !hFailed {
			if it, ok, done, err := qh.tryPop(); ok || done {
				if !ok && done && err != nil {
					hFailed, herr = true, err
				} else {
					pcancel()
					counters.hedgeWins.Add(1)
					first(it, ok, out)
					return drain(ctx, qh, out)
				}
			}
		}
		if pFailed && hFailed {
			return perr
		}
		if pFailed && herr == nil {
			// Only the hedge is live: block on it directly.
			it, ok, err := qh.pop(ctx)
			if err != nil {
				return perr // report the primary's failure, not a relayed cancel
			}
			pcancel()
			counters.hedgeWins.Add(1)
			first(it, ok, out)
			return drain(ctx, qh, out)
		}
		if hFailed && perr == nil {
			it, ok, err := qp.pop(ctx)
			if err != nil {
				return err
			}
			first(it, ok, out)
			return drain(ctx, qp, out)
		}
		select {
		case <-qp.signal:
		case <-qh.signal:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// first pushes the elected stream's first observation (an item, or
// nothing for a clean end).
func first(it Item, ok bool, out *queue) {
	if ok {
		out.push(it)
	}
}

// drain pumps the rest of the winner's queue into out.
func drain(ctx context.Context, from, to *queue) error {
	for {
		it, ok, err := from.pop(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		to.push(it)
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// rootErr is a first-writer-wins error slot shared between the fan-out
// goroutine and the cursor.
type rootErr struct {
	mu  sync.Mutex
	err error
}

func (r *rootErr) set(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

func (r *rootErr) get() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
