package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"xquec"
)

// AppendRequest is the /append request body.
type AppendRequest struct {
	Repo string `json:"repo"`
	// Doc is the XML document to append: its root tag must match the
	// repository's, and the root must carry no attributes (the appended
	// root is spliced away — its children join the repository root's).
	Doc string `json:"doc"`
	// Compact asks for a synchronous compaction after the append: the
	// response is not written until the repository is back to a single
	// freshly partitioned segment.
	Compact bool `json:"compact,omitempty"`
}

// AppendResponse is the /append response body.
type AppendResponse struct {
	Repo      string  `json:"repo"`
	Segments  int     `json:"segments"`
	Bytes     int     `json:"bytes"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Compacted is true when this request ran a synchronous compaction.
	Compacted bool `json:"compacted,omitempty"`
	// CompactionStarted is true when the append tripped the server's
	// CompactAfter threshold and a background compaction was launched.
	CompactionStarted bool `json:"compaction_started,omitempty"`
}

// writerFor returns the repository's Writer, creating it on first use:
// the pool's current handle is adopted (a plain repository becomes the
// base segment of a fresh set), the Writer is bound to the repository's
// segment-set manifest so every commit persists, and its swap hook
// publishes each new Database into the pool.
func (s *Server) writerFor(name string) (*xquec.Writer, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if w, ok := s.writers[name]; ok {
		return w, nil
	}
	db, _, err := s.pool.Get(name)
	if err != nil {
		return nil, err
	}
	w, err := xquec.NewWriter(db, xquec.Options{})
	if err != nil {
		return nil, err
	}
	w.BindFile(filepath.Join(s.cfg.RepoDir, name+".xqcg"))
	w.OnSwap(func(db *xquec.Database) { s.pool.Swap(name, db) })
	// Publish the adopted handle immediately: from now on the pool serves
	// the Writer's view, so reads and writes can never diverge.
	s.pool.Swap(name, w.DB())
	s.writers[name] = w
	return w, nil
}

// segmentCounts snapshots the per-repository segment counts of every
// live Writer (the repositories this server has appended to).
func (s *Server) segmentCounts() map[string]int64 {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	out := make(map[string]int64, len(s.writers))
	for name, w := range s.writers {
		out[name] = int64(w.DB().Segments())
	}
	return out
}

// maybeCompact launches a background compaction for name when the
// segment count has reached the CompactAfter threshold and none is
// already running. Queries during the compaction keep their snapshot;
// the compacted set is published through the same swap path as appends.
func (s *Server) maybeCompact(name string, w *xquec.Writer) (started bool) {
	if s.cfg.CompactAfter <= 0 || w.DB().Segments() < s.cfg.CompactAfter {
		return false
	}
	s.wmu.Lock()
	if s.compacting[name] {
		s.wmu.Unlock()
		return false
	}
	s.compacting[name] = true
	s.wmu.Unlock()
	s.metrics.CompactionsRunning.Add(1)
	go func() {
		defer func() {
			s.metrics.CompactionsRunning.Add(-1)
			s.wmu.Lock()
			delete(s.compacting, name)
			s.wmu.Unlock()
		}()
		started := time.Now()
		if _, err := w.Compact(context.Background()); err != nil {
			s.metrics.CompactionErrors.Add(1)
			return
		}
		s.metrics.CompactionsTotal.Add(1)
		s.metrics.ObserveCompaction(time.Since(started))
	}()
	return true
}

// handleAppend answers POST /append: it stages and commits one document
// as a new append segment, persists the grown set, swaps it into the
// repository pool, and optionally compacts (synchronously on request,
// in the background past the CompactAfter threshold).
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST required"})
		return
	}
	var req AppendRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxAppendBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad request body: " + err.Error()})
		return
	}
	if req.Repo == "" || req.Doc == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{"repo and doc are required"})
		return
	}

	started := time.Now()
	wr, err := s.writerFor(req.Repo)
	if err != nil {
		s.metrics.AppendErrors.Add(1)
		if errors.Is(err, os.ErrNotExist) {
			writeJSON(w, http.StatusNotFound, errorResponse{fmt.Sprintf("unknown repository %q", req.Repo)})
			return
		}
		writeJSON(w, statusFor(err), errorResponse{err.Error()})
		return
	}
	if err := wr.Append([]byte(req.Doc)); err != nil {
		s.metrics.AppendErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	db, err := wr.Commit()
	if err != nil {
		s.metrics.AppendErrors.Add(1)
		writeJSON(w, statusFor(err), errorResponse{err.Error()})
		return
	}
	s.metrics.AppendsTotal.Add(1)
	s.metrics.AppendBytes.Add(int64(len(req.Doc)))

	resp := AppendResponse{Repo: req.Repo, Bytes: len(req.Doc)}
	if req.Compact {
		cStart := time.Now()
		if db, err = wr.Compact(r.Context()); err != nil {
			s.metrics.CompactionErrors.Add(1)
			writeJSON(w, statusFor(err), errorResponse{err.Error()})
			return
		}
		s.metrics.CompactionsTotal.Add(1)
		s.metrics.ObserveCompaction(time.Since(cStart))
		resp.Compacted = true
	} else {
		resp.CompactionStarted = s.maybeCompact(req.Repo, wr)
	}
	resp.Segments = db.Segments()
	resp.ElapsedMs = float64(time.Since(started).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}
