package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func postExplain(t *testing.T, url string, req QueryRequest) (*ExplainResponse, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query?explain=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body = io.NopCloser(bytes.NewReader(b))
		return nil, resp
	}
	var out ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp
}

// TestServerExplain: ?explain=1 plans without evaluating and returns
// Database.Explain's listing of the compiled program.
func TestServerExplain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	q := `FOR $p IN /site/people/person WHERE $p/age >= 28 RETURN $p/name/text()`
	out, resp := postExplain(t, ts.URL, QueryRequest{Repo: "people", Query: q})
	if out == nil {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("explain failed: %d %s", resp.StatusCode, b)
	}
	db, _, err := srv.pool.Get("people")
	if err != nil {
		t.Fatal(err)
	}
	if want, err := db.Explain(q); err != nil || out.Plan != want {
		t.Fatalf("plan = %q, want Database.Explain's %q (%v)", out.Plan, want, err)
	}
	for _, want := range []string{"SCAN", "LITREST", "ITER", "EMITSEQ"} {
		if !strings.Contains(out.Plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, out.Plan)
		}
	}
	// Explain never evaluates: no query counted, no items returned.
	if n := scrape(t, ts.URL)["xquecd_queries_total"]; n != 0 {
		t.Fatalf("explain counted as a query: %v", n)
	}

	// A parse error still reports through the normal error mapping.
	_, resp = postExplain(t, ts.URL, QueryRequest{Repo: "people", Query: `FOR $x IN`})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error status = %d", resp.StatusCode)
	}
	// Unknown repositories are a 404, same as evaluation.
	_, resp = postExplain(t, ts.URL, QueryRequest{Repo: "missing", Query: `count(/a)`})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown repo status = %d", resp.StatusCode)
	}
}

// TestServerPlanMetrics: /metrics counts plan-cache hits
// and misses without an engine label — every plan is a compiled
// program — and sizes the cache in compiled-program bytes.
func TestServerPlanMetrics(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	q := QueryRequest{Repo: "numbers", Query: `count(/data/v)`}
	for i := 0; i < 3; i++ {
		if res, _ := postQuery(t, ts.URL, q); res == nil {
			t.Fatal("query failed")
		}
	}

	body := exposition(t, ts.URL)
	for _, want := range []string{
		"xquecd_plan_cache_hits_total 2",
		"xquecd_plan_cache_misses_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "engine=") {
		t.Fatalf("metrics still label an evaluation engine:\n%s", body)
	}
	m := regexp.MustCompile(`(?m)^xquecd_plan_cache_bytes (\d+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metrics missing xquecd_plan_cache_bytes gauge:\n%s", body)
	}
	if n, _ := strconv.Atoi(m[1]); n <= 0 {
		t.Fatalf("plan cache bytes gauge = %s, want > 0", m[1])
	}

	st := srv.PlanCache().Stats()
	if st.SizeBytes <= 0 {
		t.Fatalf("plan cache SizeBytes = %d, want > 0", st.SizeBytes)
	}
	if st.Entries != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
