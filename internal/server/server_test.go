package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer builds a server over a fresh directory holding two
// small repositories, "people" and "numbers".
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	writeRepo(t, dir, "people",
		`<site><people>
		   <person id="p0"><name>Alice</name><age>30</age></person>
		   <person id="p1"><name>Bob</name><age>25</age></person>
		 </people></site>`)
	writeRepo(t, dir, "numbers",
		`<data><v>1</v><v>2</v><v>3</v><v>4</v></data>`)
	cfg.RepoDir = dir
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postQuery(t testing.TB, url string, req QueryRequest) (*QueryResponse, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body = io.NopCloser(bytes.NewReader(b))
		return nil, resp
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp
}

func TestServerQueryBasics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	res, _ := postQuery(t, ts.URL, QueryRequest{
		Repo:  "people",
		Query: `FOR $p IN /site/people/person WHERE $p/age >= 28 RETURN $p/name/text()`,
	})
	if res == nil {
		t.Fatal("query failed")
	}
	if res.Result != "Alice" || res.Count != 1 {
		t.Fatalf("result = %+v", res)
	}
	if res.PlanCached || res.RepoCached {
		t.Fatalf("first query should miss both caches: %+v", res)
	}
}

func TestServerPlanCacheHitOnRepeat(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	q := QueryRequest{Repo: "numbers", Query: `count(/data/v)`}
	first, _ := postQuery(t, ts.URL, q)
	if first == nil || first.Result != "4" {
		t.Fatalf("first = %+v", first)
	}
	second, _ := postQuery(t, ts.URL, q)
	if second == nil || !second.PlanCached || !second.RepoCached {
		t.Fatalf("repeat should hit both caches: %+v", second)
	}
	m := srv.Metrics().Snapshot()
	if m.PlanHits < 1 || m.PlanMisses < 1 {
		t.Fatalf("plan cache counters = %+v", m)
	}
	// Measured hit ratio must be positive on a repeated workload.
	if ratio := float64(m.PlanHits) / float64(m.PlanHits+m.PlanMisses); ratio <= 0 {
		t.Fatalf("hit ratio = %v", ratio)
	}
}

func TestServerConcurrentQueriesTwoRepos(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 4})
	type tc struct {
		req  QueryRequest
		want string
	}
	cases := []tc{
		{QueryRequest{Repo: "people", Query: `count(/site/people/person)`}, "2"},
		{QueryRequest{Repo: "people", Query: `/site/people/person[@id = "p1"]/name/text()`}, "Bob"},
		{QueryRequest{Repo: "numbers", Query: `count(/data/v)`}, "4"},
		{QueryRequest{Repo: "numbers", Query: `sum(/data/v)`}, "10"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c := cases[(w+i)%len(cases)]
				res, resp := postQuery(t, ts.URL, c.req)
				if res == nil {
					b, _ := io.ReadAll(resp.Body)
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, b)
					return
				}
				if res.Result != c.want {
					errs <- fmt.Errorf("%s on %s = %q, want %q", c.req.Query, c.req.Repo, res.Result, c.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := srv.Metrics().Snapshot()
	if m.QueriesTotal != 160 {
		t.Fatalf("queries_total = %d", m.QueriesTotal)
	}
	if m.PlanHits == 0 || m.RepoHits == 0 {
		t.Fatalf("caches never hit under repetition: %+v", m)
	}
	if m.InFlight != 0 {
		t.Fatalf("in-flight gauge leaked: %d", m.InFlight)
	}
}

// slowServer serves one repository whose cross-product query takes far
// longer than the timeouts used in the cancellation tests.
func slowServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	var sb strings.Builder
	sb.WriteString("<d>")
	for i := 0; i < 1200; i++ {
		fmt.Fprintf(&sb, "<i><v>%d</v></i>", i)
	}
	sb.WriteString("</d>")
	writeRepo(t, dir, "big", sb.String())
	cfg.RepoDir = dir
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// slowQuery is a residual (non-pushdownable) cross product: ~1.4M
// tuple evaluations, far beyond the test timeouts.
const slowQuery = `count(FOR $a IN /d/i, $b IN /d/i WHERE number($a/v) + number($b/v) < 0 RETURN 1)`

func TestServerQueryTimeoutCancelsEvaluation(t *testing.T) {
	srv, ts := slowServer(t, Config{QueryTimeout: 50 * time.Millisecond})
	started := time.Now()
	res, resp := postQuery(t, ts.URL, QueryRequest{Repo: "big", Query: slowQuery})
	elapsed := time.Since(started)
	if res != nil {
		t.Fatalf("slow query completed: %+v", res)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	// The evaluation must stop near the deadline, not run to completion
	// (the full cross product takes multiple seconds).
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if m := srv.Metrics().Snapshot(); m.Timeouts != 1 {
		t.Fatalf("timeouts = %d", m.Timeouts)
	}
}

func TestServerPerRequestTimeout(t *testing.T) {
	_, ts := slowServer(t, Config{QueryTimeout: time.Hour})
	_, resp := postQuery(t, ts.URL, QueryRequest{Repo: "big", Query: slowQuery, TimeoutMs: 50})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestServerErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		req  QueryRequest
		code int
	}{
		{"unknown repo", QueryRequest{Repo: "nope", Query: "count(/a)"}, http.StatusNotFound},
		{"bad query", QueryRequest{Repo: "people", Query: "FOR $x IN"}, http.StatusBadRequest},
		{"bad repo name", QueryRequest{Repo: "../x", Query: "count(/a)"}, http.StatusBadRequest},
		{"empty", QueryRequest{}, http.StatusBadRequest},
	} {
		res, resp := postQuery(t, ts.URL, tc.req)
		if res != nil || resp.StatusCode != tc.code {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("%s: error body missing (%v)", tc.name, err)
		}
	}
	// GET on /query is rejected.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d", resp.StatusCode)
	}
}

func TestServerReposStatsHealthMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postQuery(t, ts.URL, QueryRequest{Repo: "people", Query: `count(/site/people/person)`})
	postQuery(t, ts.URL, QueryRequest{Repo: "people", Query: `count(/site/people/person)`})

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %q", body)
	}
	var repos struct {
		Repos []RepoInfo `json:"repos"`
	}
	if err := json.Unmarshal([]byte(get("/repos")), &repos); err != nil {
		t.Fatal(err)
	}
	if len(repos.Repos) != 2 {
		t.Fatalf("repos = %+v", repos)
	}
	residentPeople := false
	for _, r := range repos.Repos {
		if r.Name == "people" && r.Resident {
			residentPeople = true
		}
	}
	if !residentPeople {
		t.Fatalf("people not resident after queries: %+v", repos)
	}

	var stats StatsResponse
	if err := json.Unmarshal([]byte(get("/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Counters.QueriesTotal != 2 || stats.PlanCache.Hits != 1 || stats.Pool.Hits != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	ps, ok := stats.Pool.Structures["people"]
	if !ok {
		t.Fatalf("stats missing structure info for resident repo: %+v", stats.Pool)
	}
	if ps.BitsPerNode <= 0 || ps.BitsPerNode > 64 {
		t.Fatalf("bits/node = %v", ps.BitsPerNode)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"xquecd_queries_total 2",
		"xquecd_plan_cache_hits_total 1",
		"xquecd_plan_cache_misses_total 1",
		"xquecd_repo_cache_hits_total 1",
		"xquecd_repo_cache_misses_total 1",
		"xquecd_query_duration_seconds_bucket",
		"xquecd_query_duration_seconds_count 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty RepoDir accepted")
	}
	if _, err := New(Config{RepoDir: "/definitely/not/there"}); err == nil {
		t.Fatal("missing dir accepted")
	}
}
