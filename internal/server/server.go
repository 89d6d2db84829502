package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"xquec"
)

// Config configures a Server.
type Config struct {
	// RepoDir is the directory holding *.xqc repository files;
	// repositories are addressed by file name without the extension.
	RepoDir string
	// PoolSize caps the number of resident repositories (default 8).
	PoolSize int
	// PlanCacheSize caps the number of cached query plans (default 256).
	PlanCacheSize int
	// MaxConcurrent bounds simultaneously evaluating queries; excess
	// requests wait their turn (default 2×GOMAXPROCS). Each query is
	// evaluated serially on its request's goroutine, so this is the
	// server's whole query parallelism.
	MaxConcurrent int
	// QueryTimeout is the per-query evaluation deadline (default 30s).
	// A request may ask for less via timeout_ms, never for more.
	QueryTimeout time.Duration
	// MaxBodyBytes caps the /query request body (default 1 MiB).
	MaxBodyBytes int64
	// FlushEvery is the item interval between forced flushes on
	// /query/stream after the first item (which always flushes, to bound
	// time-to-first-byte). Default 32.
	FlushEvery int
	// MaxAppendBytes caps the /append request body (default 64 MiB —
	// appended documents are whole XML documents, so the /query body cap
	// would be far too small).
	MaxAppendBytes int64
	// CompactAfter, when positive, triggers a background compaction once
	// an append leaves a repository with at least this many segments.
	// One compaction runs per repository at a time; queries during the
	// compaction keep their snapshot and are never blocked. Default 0
	// (compact only on request).
	CompactAfter int
	// AppendParallelism is the ingestion worker budget for /append
	// commits and compactions (default GOMAXPROCS — ingestion is a
	// foreground cost the client is waiting on).
	AppendParallelism int
}

func (c *Config) fillDefaults() {
	if c.PoolSize <= 0 {
		c.PoolSize = 8
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 256
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 32
	}
	if c.MaxAppendBytes <= 0 {
		c.MaxAppendBytes = 64 << 20
	}
	if c.AppendParallelism <= 0 {
		c.AppendParallelism = runtime.GOMAXPROCS(0)
	}
}

// Server is the xquecd query service: repository pool + plan cache +
// bounded concurrent evaluation + metrics, behind an HTTP JSON API.
type Server struct {
	cfg     Config
	pool    *Pool
	plans   *PlanCache
	metrics *Metrics
	sem     chan struct{}

	// The write path: one Writer per appended-to repository (created on
	// first /append, bound to the repository's segment-set manifest) and
	// a single-in-flight guard for background compactions. Writers
	// publish through Pool.Swap, so queries switch to the grown
	// repository atomically while in-flight ones keep their snapshot.
	wmu        sync.Mutex
	writers    map[string]*xquec.Writer
	compacting map[string]bool
}

// New builds a Server over cfg.RepoDir.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if cfg.RepoDir == "" {
		return nil, fmt.Errorf("server: RepoDir is required")
	}
	if st, err := os.Stat(cfg.RepoDir); err != nil || !st.IsDir() {
		return nil, fmt.Errorf("server: repository directory %s is not a directory", cfg.RepoDir)
	}
	s := &Server{
		cfg:        cfg,
		pool:       NewPool(cfg.RepoDir, cfg.PoolSize),
		plans:      NewPlanCache(cfg.PlanCacheSize),
		metrics:    &Metrics{},
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		writers:    map[string]*xquec.Writer{},
		compacting: map[string]bool{},
	}
	return s, nil
}

// Pool exposes the repository pool.
func (s *Server) Pool() *Pool { return s.pool }

// PlanCache exposes the plan cache.
func (s *Server) PlanCache() *PlanCache { return s.plans }

// Handler returns the HTTP API:
//
//	POST /query         {"repo": name, "query": text, "timeout_ms": n?}
//	POST /query/stream  same body; newline-separated items, chunked
//	POST /append        {"repo": name, "doc": xml, "compact": bool?}
//	GET  /repos         available + resident repositories
//	GET  /healthz       liveness probe
//	GET  /metrics       Prometheus text format
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/query/stream", s.handleQueryStream)
	mux.HandleFunc("/append", s.handleAppend)
	mux.HandleFunc("/repos", s.handleRepos)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.writeMetrics(w)
	})
	return mux
}

// QueryRequest is the /query request body.
type QueryRequest struct {
	Repo  string `json:"repo"`
	Query string `json:"query"`
	// TimeoutMs optionally lowers the server's query timeout for this
	// request.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// QueryResponse is the /query response body.
type QueryResponse struct {
	Repo       string  `json:"repo"`
	Count      int     `json:"count"`
	Result     string  `json:"result"`
	ElapsedMs  float64 `json:"elapsed_ms"`
	PlanCached bool    `json:"plan_cached"`
	RepoCached bool    `json:"repo_cached"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// statusFor maps a query error to an HTTP status through the library's
// typed sentinels: parse errors are the client's fault (400), evaluation
// errors mean the query was well-formed but failed against this data
// (422), and a repository that fails to decode is a server-side fault
// (500). Anything untagged falls back to 400.
func statusFor(err error) int {
	switch {
	case errors.Is(err, xquec.ErrParse):
		return http.StatusBadRequest
	case errors.Is(err, xquec.ErrCorruptRepository):
		return http.StatusInternalServerError
	case errors.Is(err, xquec.ErrEval):
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// decodeRequest parses and validates the /query body, answering the
// request itself on failure. ok is false when a response was written.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (req QueryRequest, ok bool) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST required"})
		return req, false
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad request body: " + err.Error()})
		return req, false
	}
	if req.Repo == "" || strings.TrimSpace(req.Query) == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{"repo and query are required"})
		return req, false
	}
	return req, true
}

// timeoutFor is the effective deadline: the server's, optionally
// lowered (never raised) by the request.
func (s *Server) timeoutFor(req QueryRequest) time.Duration {
	timeout := s.cfg.QueryTimeout
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	return timeout
}

// admit waits for an evaluation slot, answering 503 if the caller's
// deadline expires in the queue. release is non-nil iff admitted.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) (release func()) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }
	case <-ctx.Done():
		s.metrics.QueriesTotal.Add(1)
		s.metrics.Timeouts.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{"queue wait exceeded deadline"})
		return nil
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("explain") == "1" {
		s.handleExplain(w, req)
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

	resp, status, err := s.runQuery(ctx, req)
	elapsed := time.Since(started)
	s.metrics.QueriesTotal.Add(1)
	s.metrics.ObserveLatency(elapsed)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.metrics.Timeouts.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{
				fmt.Sprintf("query exceeded %v deadline", timeout)})
			return
		}
		s.metrics.QueryErrors.Add(1)
		writeJSON(w, status, errorResponse{err.Error()})
		return
	}
	resp.ElapsedMs = float64(elapsed.Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// ExplainResponse is the /query?explain=1 response body: the plan is
// Database.Explain's, the listing of the program the server would run.
type ExplainResponse struct {
	Repo  string `json:"repo"`
	Query string `json:"query"`
	Plan  string `json:"plan"`
}

// handleExplain answers POST /query?explain=1: it plans the query but
// never evaluates it, so it bypasses admission control and deadlines.
func (s *Server) handleExplain(w http.ResponseWriter, req QueryRequest) {
	db, _, err := s.pool.Get(req.Repo)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			writeJSON(w, http.StatusNotFound, errorResponse{fmt.Sprintf("unknown repository %q", req.Repo)})
			return
		}
		writeJSON(w, statusFor(err), errorResponse{err.Error()})
		return
	}
	plan, err := db.Explain(req.Query)
	if err != nil {
		writeJSON(w, statusFor(err), errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{Repo: req.Repo, Query: req.Query, Plan: plan})
}

// resolve turns a request into a running result cursor via the
// repository pool and plan cache. The returned status is used only when
// err is non-nil and not a cancellation.
func (s *Server) resolve(ctx context.Context, req QueryRequest) (res *xquec.Results, planCached, repoCached bool, status int, err error) {
	db, repoCached, err := s.pool.Get(req.Repo)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, false, false, http.StatusNotFound, fmt.Errorf("unknown repository %q", req.Repo)
		}
		return nil, false, false, statusFor(err), err
	}

	// The topology key pins cached plans to this repository instance:
	// after an eviction + reload (or a swap to a grown or compacted set) the
	// key changes and the stale plan can never be served.
	topo := db.TopologyKey()
	prep := s.plans.Get(req.Repo, topo, req.Query)
	planCached = prep != nil
	if !planCached {
		prep, err = db.Prepare(req.Query)
		if err != nil {
			return nil, planCached, repoCached, statusFor(err), err
		}
		s.plans.Put(req.Repo, topo, req.Query, prep)
	}

	res, err = prep.Execute(ctx, xquec.QueryOptions{})
	if err != nil {
		return nil, planCached, repoCached, statusFor(err), err
	}
	return res, planCached, repoCached, http.StatusOK, nil
}

// runQuery resolves and evaluates, streaming the result through the
// cursor into the response buffer (one item decompressed at a time)
// even though /query answers with a single JSON object.
func (s *Server) runQuery(ctx context.Context, req QueryRequest) (*QueryResponse, int, error) {
	res, planCached, repoCached, status, err := s.resolve(ctx, req)
	if err != nil {
		return nil, status, err
	}
	defer res.Close()
	var sb strings.Builder
	if _, err := res.WriteXML(&sb); err != nil {
		return nil, statusFor(err), err
	}
	out := sb.String()
	s.metrics.ResultItems.Add(int64(res.Len()))
	s.metrics.ResultBytes.Add(int64(len(out)))
	return &QueryResponse{
		Repo:       req.Repo,
		Count:      res.Len(),
		Result:     out,
		PlanCached: planCached,
		RepoCached: repoCached,
	}, http.StatusOK, nil
}

// RepoInfo describes one repository for /repos.
type RepoInfo struct {
	Name     string `json:"name"`
	Resident bool   `json:"resident"`
}

func (s *Server) handleRepos(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET required"})
		return
	}
	names, err := s.pool.Available()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	resident := map[string]bool{}
	for _, n := range s.pool.Resident() {
		resident[n] = true
	}
	out := make([]RepoInfo, 0, len(names))
	for _, n := range names {
		out = append(out, RepoInfo{Name: n, Resident: resident[n]})
	}
	writeJSON(w, http.StatusOK, map[string]any{"repos": out})
}
