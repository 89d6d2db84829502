package partition

import (
	"context"
	"sync"

	"xquec/internal/xpar"
)

// Worker evaluates requests against one part. The fan-out reaches
// every part through it, and that is its only purpose: tests substitute
// fault-injecting fakes here.
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

// FanOut starts the concurrent evaluation of req on every worker, at
// most fanout at a time (0 or >= len(workers): all at once), and returns
// the merging cursor. Evaluation is lazy per stream but eager in
// dispatch: workers begin evaluating (into their unbounded queues) as
// the fan-out schedules them, regardless of merge progress. The first
// part to fail fails the query, as it would on the unpartitioned corpus.
// It is stateless across queries and safe for concurrent calls.
func FanOut(ctx context.Context, workers []Worker, req Request, fanout int) *Cursor {
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
	cur := &Cursor{streams: streams, cancel: cancel}
	if fanout <= 0 || fanout > n {
		fanout = n
	}
	go func() {
		err := xpar.ForEach(fanout, n, func(i int) error {
			return runPart(cctx, workers[i], queues[i], req)
		})
		if err != nil {
			// Record the root cause, then cancel: that stops the running
			// parts and wakes the merge, which would otherwise wait
			// forever on a part the fan-out never started. The merge
			// reports the root cause in preference to the cancellation.
			cur.root.set(err)
			cancel()
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

// runPart evaluates one part into its queue on the fan-out goroutine.
// A returned error aborts the fan-out.
func runPart(ctx context.Context, w Worker, out *queue, req Request) error {
	counters.shardStreams.Add(1)
	err := pump(ctx, w, out, req)
	if err != nil {
		counters.shardFailures.Add(1)
	}
	out.closeWith(err)
	return err
}

// pump pushes every item of w's stream for req into the (unbounded)
// queue.
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
