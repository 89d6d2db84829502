package partition

import (
	"context"
	"fmt"
	"io"

	"xquec/internal/algebra"
	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/vm"
	"xquec/internal/xquery"
)

// Request is one per-part evaluation request. Query and Parallelism are
// plain data, so the same request can cross an RPC boundary unchanged.
// Expr and ProgramFor ride along as in-process optimizations (parse
// once, compile each part once, evaluate N times); a remote worker
// simply re-parses and compiles the text.
type Request struct {
	// Query is the query text.
	Query string
	// Parallelism is the part-local intra-query worker budget
	// (engine.WithParallelism semantics; 0 = GOMAXPROCS).
	Parallelism int
	// Expr is the parsed form of Query; nil forces a parse per part.
	Expr xquery.Expr
	// ProgramFor, when non-nil, supplies the compiled program for a part
	// store (nil return = tree walker) — a prepared statement passes its
	// per-store lookup here, so every part compiles once per statement
	// and the programs die with it. When nil, parts compile on the spot.
	ProgramFor func(*storage.Store) *vm.Program
}

// program resolves the compiled program for st under the engine
// selection read at evaluation time; nil means the tree walker.
func (r *Request) program(expr xquery.Expr, st *storage.Store) *vm.Program {
	if !vm.Enabled() {
		return nil
	}
	if r.ProgramFor != nil {
		return r.ProgramFor(st)
	}
	prog, _ := vm.Compile(expr, st, r.Query)
	return prog
}

// Item is one part's result item: its global document-order rank and
// its serialized XML/text. Serialization happens part-side — failure
// isolation demands that a corrupt part fail inside its own stream,
// not during the merge — and bytes are what an RPC worker would ship
// anyway.
type Item struct {
	Rank uint64
	XML  []byte
}

// Stream is one part's ordered result stream. Ranks are non-decreasing;
// items sharing a binding share a rank and stay adjacent.
type Stream interface {
	// Next returns the next item; ok=false ends the stream. A non-nil
	// error is terminal.
	Next() (Item, bool, error)
	// Close releases the evaluation; safe after exhaustion.
	Close() error
}

func closeStreams(streams []Stream) {
	for _, st := range streams {
		st.Close()
	}
}

// openPart starts the evaluation of req on one part. Evaluation is
// lazy: the engine only advances inside the stream's Next.
func (s *Set) openPart(ctx context.Context, part int, req Request) (Stream, error) {
	expr := req.Expr
	if expr == nil {
		var err error
		if expr, err = xquery.Parse(req.Query); err != nil {
			return nil, err
		}
	}
	store := s.Stores[part]
	ps := &partStream{set: s, part: part}
	var hook func(storage.NodeID)
	if s.Layout.Interleaved {
		hook = func(id storage.NodeID) { ps.origin = id }
	}
	var err error
	if prog := req.program(expr, store); prog != nil {
		ps.res, err = prog.Run(vm.RunOptions{Ctx: ctx, Parallelism: req.Parallelism, BindHook: hook})
	} else {
		ps.res, err = engine.New(store).
			WithContext(ctx).
			WithParallelism(req.Parallelism).
			WithBindHook(hook).
			EvalStream(expr)
	}
	if err != nil {
		return nil, err
	}
	return ps, nil
}

// partStream adapts an engine result to the Stream interface, stamping
// each item with its merge rank. On a contiguous layout that is the
// part index: everything below the root of part k precedes part k+1 in
// the corpus. On an interleaved layout it is the global rank of the
// subtree the item's binding lies in; origin is written by the engine's
// bind hook strictly before the item it belongs to is yielded, and the
// evaluation only advances inside Next, so reading origin after Next is
// race-free.
type partStream struct {
	set    *Set
	part   int
	res    *engine.Result
	origin storage.NodeID
}

func (s *partStream) Next() (Item, bool, error) {
	it, ok, err := s.res.Next()
	if err != nil || !ok {
		return Item{}, false, err
	}
	rank := uint64(s.part)
	if s.set.Layout.Interleaved {
		if s.origin == 0 {
			return Item{}, false, fmt.Errorf("partition: item has no binding origin (query was not scatter-analyzed?)")
		}
		var inSubtree bool
		if rank, inSubtree = s.set.rankOf(s.part, s.origin); !inSubtree {
			return Item{}, false, fmt.Errorf("partition: binding %d of shard %d is a spine node", s.origin, s.part)
		}
	}
	xml, err := s.res.AppendItemXML(nil, it)
	if err != nil {
		return Item{}, false, err
	}
	return Item{Rank: rank, XML: xml}, true, nil
}

func (s *partStream) Close() error { return s.res.Close() }

// srcItem is one item inside the merge heap; its rank is the heap key,
// so the payload is just the source stream (for refill) and the
// serialized bytes.
type srcItem struct {
	src int
	xml []byte
}

// Cursor is the merged result stream of a scattered query: a k-way
// merge over the per-part streams by rank, pulled one item per Next. It
// is a single-consumer cursor with sticky errors, mirroring
// engine.Result's contract so the public Results API can wrap either.
//
// Ordering: within a stream ranks are non-decreasing and items of equal
// rank stay adjacent (the heap's strict-< sift never reorders ties),
// and ranks never tie across streams — interleaved ranks are ≡ part
// (mod N), contiguous ranks are the part index, where the merge
// degenerates to concatenation — so the merged stream is exactly the
// unpartitioned document-order result.
type Cursor struct {
	streams []Stream

	// Set by the fan-out only; an inline cursor is fail-fast with no
	// context of its own (its streams poll the caller's).
	cancel  context.CancelFunc
	partial bool    // partial-results policy (vs fail-fast)
	root    rootErr // fan-out failure, set before the sweep-close

	primed     bool
	err        error // sticky terminal error
	heap       algebra.KWayHeap[srcItem]
	served     int
	wasPartial bool
	counted    bool
	buf        [][]byte // Len-materialized remainder
	bufPos     int
}

// Prime forces the first item of every part (or its clean end), so
// eager failures — a parse error on a worker, an expired deadline, a
// corrupt part under fail-fast — surface at call time rather than on
// the first Next.
func (c *Cursor) Prime() error {
	if c.primed {
		return c.err
	}
	c.primed = true
	for i := range c.streams {
		rank, it, ok, err := c.advance(i)
		if err != nil {
			c.fail(err)
			return c.err
		}
		if ok {
			c.heap.Push(rank, it)
		}
	}
	c.heap.Init()
	return nil
}

// advance pulls the next item from stream i. ok=false means that part
// is exhausted — cleanly, or absorbed under the partial-results policy
// (which never absorbs context expiry, and never outruns a recorded
// fan-out failure).
func (c *Cursor) advance(i int) (uint64, srcItem, bool, error) {
	it, ok, err := c.streams[i].Next()
	if err != nil {
		if re := c.root.get(); re != nil {
			return 0, srcItem{}, false, re
		}
		if c.partial && !isCtxErr(err) {
			c.wasPartial = true
			return 0, srcItem{}, false, nil
		}
		return 0, srcItem{}, false, err
	}
	if !ok {
		return 0, srcItem{}, false, nil
	}
	return it.Rank, srcItem{src: i, xml: it.XML}, true, nil
}

// Next returns the next merged item's serialized XML/text. ok=false
// ends the stream; errors are sticky.
func (c *Cursor) Next() ([]byte, bool, error) {
	if err := c.Prime(); err != nil {
		return nil, false, err
	}
	if c.err != nil {
		return nil, false, c.err
	}
	if c.buf != nil {
		if c.bufPos < len(c.buf) {
			x := c.buf[c.bufPos]
			c.buf[c.bufPos] = nil
			c.bufPos++
			c.served++
			return x, true, nil
		}
		c.finish()
		return nil, false, nil
	}
	x, ok, err := c.step()
	if err != nil {
		c.fail(err)
		return nil, false, c.err
	}
	if !ok {
		c.finish()
		return nil, false, nil
	}
	c.served++
	return x, true, nil
}

// step performs one heap merge step: take the minimum-rank item, then
// refill its source stream (ReplaceMin when it yields, PopMin when it's
// exhausted).
func (c *Cursor) step() ([]byte, bool, error) {
	if c.heap.Len() == 0 {
		return nil, false, nil
	}
	_, top := c.heap.Min()
	rank, it, ok, err := c.advance(top.src)
	if err != nil {
		return nil, false, err
	}
	if ok {
		c.heap.ReplaceMin(rank, it)
	} else {
		c.heap.PopMin()
	}
	if c.cancel != nil {
		counters.mergedItems.Add(1) // a shard-tier metric: fanned-out merges only
	}
	return top.xml, true, nil
}

// finish runs at clean exhaustion: account the partial outcome and
// release the evaluation.
func (c *Cursor) finish() {
	if c.wasPartial && !c.counted {
		c.counted = true
		counters.partialResults.Add(1)
	}
	c.Close()
}

func (c *Cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.Close()
}

// Partial reports whether any part's results were dropped under the
// partial-results policy. It is definitive only once the cursor is
// exhausted (ok=false from Next) — a still-healthy part can fail later
// in the stream.
func (c *Cursor) Partial() bool { return c.wasPartial }

// Len returns the total number of result items, forcing the remaining
// merge (items are buffered for later consumption, mirroring
// engine.Result.Len).
func (c *Cursor) Len() int {
	if err := c.Prime(); err != nil {
		return c.served
	}
	if c.buf == nil && c.err == nil {
		buf := [][]byte{}
		for {
			x, ok, err := c.step()
			if err != nil {
				c.fail(err)
				break
			}
			if !ok {
				break
			}
			buf = append(buf, x)
		}
		c.buf, c.bufPos = buf, 0
	}
	return c.served + len(c.buf) - c.bufPos
}

// WriteXML streams the not-yet-consumed items to w, newline-separated
// with no trailing newline — byte-compatible with engine.Result's
// serialization of the same item sequence.
func (c *Cursor) WriteXML(w io.Writer) (int, error) {
	written := 0
	for first := true; ; first = false {
		x, ok, err := c.Next()
		if err != nil || !ok {
			return written, err
		}
		if !first {
			n, err := io.WriteString(w, "\n")
			written += n
			if err != nil {
				c.fail(err)
				return written, err
			}
		}
		n, err := w.Write(x)
		written += n
		if err != nil {
			c.fail(err)
			return written, err
		}
	}
}

// Close releases every part's evaluation and discards unconsumed items.
// Idempotent. Under the fan-out a Close mid-stream surfaces as
// context.Canceled on the workers, which is terminal, never partial.
func (c *Cursor) Close() error {
	if c.cancel != nil {
		c.cancel()
	}
	closeStreams(c.streams)
	return nil
}
