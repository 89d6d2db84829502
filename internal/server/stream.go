package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// handleQueryStream serves POST /query/stream: the same request body as
// /query, answered as a chunked text stream of newline-terminated items
// instead of one JSON object. Items are serialized — and their values
// decompressed — as evaluation produces them, and reach the socket in
// blocks (blockWriter): the first item is written and flushed alone
// (time-to-first-byte does not wait for the full result), later ones as
// a 32 KiB block, as soon as the oldest pending item has waited
// streamLinger, and at the end, so a client reads results while the
// server is still evaluating. A client disconnect cancels the evaluation
// through the request context; a write that fails stops it too.
//
// Item count and any mid-stream error are reported in the declared HTTP
// trailers X-Xquec-Count and X-Xquec-Error; every item counted is in the
// body. Pre-stream errors (bad query, unknown repo) still get a JSON
// error body with the same status mapping as /query.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	timeout := s.timeoutFor(req)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	release := s.admit(ctx, w)
	if release == nil {
		return
	}
	defer release()

	started := time.Now()
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)
	defer func() {
		s.metrics.QueriesTotal.Add(1)
		s.metrics.StreamQueries.Add(1)
		s.metrics.ObserveLatency(time.Since(started))
	}()

	res, planCached, repoCached, status, err := s.resolve(ctx, req)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.metrics.Timeouts.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{err.Error()})
			return
		}
		s.metrics.QueryErrors.Add(1)
		writeJSON(w, status, errorResponse{err.Error()})
		return
	}
	defer res.Close()

	h := w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("X-Xquec-Repo", req.Repo)
	h.Set("X-Xquec-Plan-Cached", strconv.FormatBool(planCached))
	h.Set("X-Xquec-Repo-Cached", strconv.FormatBool(repoCached))
	h.Set("Trailer", "X-Xquec-Count, X-Xquec-Error")

	out := blockWriter{w: w}
	out.flusher, _ = w.(http.Flusher)
	out.buf = blockBufs.Get().([]byte)
	defer out.recycle()
	var streamErr error
	for {
		item, more, err := res.Next()
		if err != nil {
			streamErr = err
			break
		}
		if !more {
			break
		}
		mark := len(out.buf)
		if out.buf, err = item.AppendXML(out.buf); err != nil {
			out.buf = out.buf[:mark]
			streamErr = err
			break
		}
		out.buf = append(out.buf, '\n')
		first := out.sent == 0
		if err := out.added(); err != nil {
			// The client went away; the deferred Close stops evaluation.
			streamErr = err
			break
		}
		if first {
			s.metrics.ObserveFirstByte(time.Since(started))
		}
	}
	if out.pending > 0 {
		// The last block; on an error, before the trailers that count it.
		if err := out.write(); err != nil && streamErr == nil {
			streamErr = err
		}
	}
	out.stop()
	count := out.sent
	s.metrics.ResultItems.Add(count)
	s.metrics.ResultBytes.Add(out.bytes)
	if streamErr != nil {
		if errors.Is(streamErr, context.DeadlineExceeded) || errors.Is(streamErr, context.Canceled) {
			s.metrics.Timeouts.Add(1)
		} else {
			s.metrics.QueryErrors.Add(1)
		}
		if count == 0 {
			// Nothing sent yet: a plain status response is still possible.
			status := statusFor(streamErr)
			if errors.Is(streamErr, context.DeadlineExceeded) || errors.Is(streamErr, context.Canceled) {
				status = http.StatusGatewayTimeout
			}
			writeJSON(w, status, errorResponse{streamErr.Error()})
			h.Set("X-Xquec-Count", "0")
			return
		}
		h.Set("X-Xquec-Error", streamErr.Error())
	}
	h.Set("X-Xquec-Count", strconv.FormatInt(count, 10))
}

// streamBlock is the block size /query/stream gathers before a write,
// and streamLinger the longest a pending item waits for its block to
// fill before it goes out anyway.
const (
	streamBlock  = 32 << 10
	streamLinger = 10 * time.Millisecond
)

// blockBufs holds the block buffers of finished responses for the next
// ones, each of room for a block and the item that overfills it.
var blockBufs = sync.Pool{New: func() any { return make([]byte, 0, 2*streamBlock) }}

// afterLinger arms the linger timer of a block: f runs once streamLinger
// has passed, unless the returned stop is called first. Tests stand in
// their own clock here.
var afterLinger = func(f func()) (stop func() bool) { return time.AfterFunc(streamLinger, f).Stop }

// blockWriter gathers the serialized items of one /query/stream response
// in buf and hands them to the ResponseWriter a block at a time, each
// write followed by a flush: the first item alone, then whenever
// streamBlock bytes are pending or the block's linger timer has fired.
// The clock is read once per block, to arm that timer, never per item;
// the timer only sets due, which the next item reads, so a producer
// slower than streamLinger gets each item out as the next one arrives.
type blockWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher // nil when w cannot flush
	buf     []byte       // the pending block
	pending int64        // items in buf
	sent    int64        // items written
	bytes   int64        // bytes written
	due     atomic.Bool  // the pending block's linger timer fired
	disarm  func() bool  // stops that timer; nil when none is armed
}

// added takes note of one more item appended to buf and writes the
// block when it is due.
func (b *blockWriter) added() error {
	b.pending++
	if b.sent > 0 && len(b.buf) < streamBlock && !b.due.Load() {
		if b.pending == 1 {
			b.disarm = afterLinger(func() { b.due.Store(true) })
		}
		return nil
	}
	return b.write()
}

// write hands the pending block to the ResponseWriter and flushes it.
// A block whose write fails is dropped: its items are not counted.
func (b *blockWriter) write() error {
	b.stop()
	n, err := b.w.Write(b.buf)
	b.bytes += int64(n)
	if err == nil {
		b.sent += b.pending
		if b.flusher != nil {
			b.flusher.Flush()
		}
	}
	b.pending, b.buf = 0, b.buf[:0]
	return err
}

// recycle hands buf back to blockBufs, unless one huge item grew it.
func (b *blockWriter) recycle() {
	if cap(b.buf) <= 4*streamBlock {
		blockBufs.Put(b.buf[:0])
	}
	b.buf = nil
}

// stop disarms the linger timer.
func (b *blockWriter) stop() {
	if b.disarm != nil {
		b.disarm()
		b.disarm = nil
	}
	b.due.Store(false)
}
