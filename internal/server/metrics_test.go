package server

import (
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestMetricsPrometheusFormat(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	m := srv.metrics
	m.QueriesTotal.Add(3)
	m.QueryErrors.Add(1)
	m.ObserveLatency(300 * time.Microsecond)
	m.ObserveLatency(7 * time.Millisecond)
	m.ObserveLatency(20 * time.Second) // lands in +Inf

	var sb strings.Builder
	srv.writeMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		"xquecd_queries_total 3",
		"xquecd_query_errors_total 1",
		// The cache counters are the pool's and the plan cache's own: no
		// lookup has gone through either.
		"xquecd_plan_cache_hits_total 0",
		"xquecd_plan_cache_misses_total 0",
		"xquecd_repo_cache_hits_total 0",
		"xquecd_repo_cache_misses_total 0",
		"# TYPE xquecd_query_duration_seconds histogram",
		`xquecd_query_duration_seconds_bucket{le="0.0005"} 1`,
		`xquecd_query_duration_seconds_bucket{le="0.01"} 2`,
		`xquecd_query_duration_seconds_bucket{le="+Inf"} 3`,
		"xquecd_query_duration_seconds_count 3",
		"# TYPE xquecd_in_flight_queries gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
}

func TestMetricsResidentBytesGauge(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if strings.Contains(exposition(t, ts.URL), "xquecd_repo_resident_bytes") {
		t.Fatal("resident-bytes gauge exported before any repository is resident")
	}
	for _, q := range []QueryRequest{
		{Repo: "people", Query: `count(/site/people/person)`},
		{Repo: "numbers", Query: `count(/data/v)`},
	} {
		if res, _ := postQuery(t, ts.URL, q); res == nil {
			t.Fatalf("query on %s failed", q.Repo)
		}
	}
	out := exposition(t, ts.URL)
	if !strings.Contains(out, "# TYPE xquecd_repo_resident_bytes gauge") {
		t.Errorf("missing resident-bytes family in exposition:\n%s", out)
	}
	for _, repo := range []string{"numbers", "people"} {
		m := regexp.MustCompile(`\nxquecd_repo_resident_bytes\{repo="` + repo + `"\} (\d+)\n`).FindStringSubmatch(out)
		if m == nil {
			t.Errorf("no resident bytes for %s in exposition:\n%s", repo, out)
		} else if n, _ := strconv.Atoi(m[1]); n <= 0 {
			t.Errorf("resident bytes for %s = %d", repo, n)
		}
	}
}

func TestMetricsHistogramCumulative(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	for i := 0; i < 10; i++ {
		srv.metrics.ObserveLatency(time.Duration(i) * time.Millisecond)
	}
	var sb strings.Builder
	srv.writeMetrics(&sb)
	// Buckets must be cumulative: the largest bound holds every sample.
	if !strings.Contains(sb.String(), `xquecd_query_duration_seconds_bucket{le="10"} 10`) {
		t.Fatalf("buckets not cumulative:\n%s", sb.String())
	}
}

// TestMetricsDocumented keeps /metrics and README's "series | question
// it answers" table in step: every family the daemon exports has a row
// saying what an operator learns from it, and every row names a family
// that exists. A query, a stream, an append and a compaction run first,
// so the per-repository gauges appear.
func TestMetricsDocumented(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if res, _ := postQuery(t, ts.URL, QueryRequest{Repo: "people", Query: `count(/site/people/person)`}); res == nil {
		t.Fatal("query failed")
	}
	if res, _ := postAppend(t, ts.URL, AppendRequest{Repo: "numbers", Doc: `<data><v>5</v></data>`, Compact: true}); res == nil || !res.Compacted {
		t.Fatalf("append with compaction = %+v", res)
	}
	rec := newChunkRecorder()
	srv.Handler().ServeHTTP(rec, streamRequest(t, QueryRequest{Repo: "numbers", Query: `/data/v/text()`}))
	if rec.status != http.StatusOK {
		t.Fatalf("stream: status %d, body %q", rec.status, rec.body())
	}

	exported := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(exposition(t, ts.URL), -1) {
		exported[m[1]] = true
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(xquecd_[a-z_]+)` \\|").FindAllStringSubmatch(string(readme), -1) {
		documented[m[1]] = true
	}
	var undocumented, stale []string
	for name := range exported {
		if !documented[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range documented {
		if !exported[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(stale)
	if len(undocumented) > 0 {
		t.Errorf("families without a row in README's table: %v", undocumented)
	}
	if len(stale) > 0 {
		t.Errorf("README rows naming no exported family: %v", stale)
	}
	t.Logf("%d families exported", len(exported))
}
