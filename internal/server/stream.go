package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// handleQueryStream serves POST /query/stream: the same request body as
// /query, answered as a chunked text stream of newline-terminated items
// instead of one JSON object. Items are written — and their values
// decompressed — as evaluation produces them: the first item is flushed
// immediately (time-to-first-byte does not wait for the full result)
// and every FlushEvery items thereafter, so a client reads results
// while the server is still evaluating. A client disconnect cancels the
// evaluation through the request context.
//
// Item count and any mid-stream error are reported in the declared HTTP
// trailers X-Xquec-Count and X-Xquec-Error; pre-stream errors (bad
// query, unknown repo) still get a JSON error body with the same status
// mapping as /query.
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

	flusher, canFlush := w.(http.Flusher)
	var (
		buf       []byte
		count     int64
		bytesOut  int64
		streamErr error
	)
	for {
		item, more, err := res.Next()
		if err != nil {
			streamErr = err
			break
		}
		if !more {
			break
		}
		buf, err = item.AppendXML(buf[:0])
		if err != nil {
			streamErr = err
			break
		}
		buf = append(buf, '\n')
		n, err := w.Write(buf)
		bytesOut += int64(n)
		if err != nil {
			// The client went away; the deferred Close stops evaluation.
			streamErr = err
			break
		}
		count++
		if count == 1 {
			s.metrics.ObserveFirstByte(time.Since(started))
			if canFlush {
				flusher.Flush()
			}
		} else if canFlush && count%int64(s.cfg.FlushEvery) == 0 {
			flusher.Flush()
		}
	}
	s.metrics.ResultItems.Add(count)
	s.metrics.ResultBytes.Add(bytesOut)
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
