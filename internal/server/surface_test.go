package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// TestBenchmarkSurface pins what the load generator under bench/ reads
// from a running daemon: four /metrics series, parsed as it parses them
// (unlabeled sample name, labels cut off), and the X-Xquec-Count /
// X-Xquec-Error trailers of /query/stream. Renaming or dropping any of
// them breaks the benchmark, not just a dashboard.
func TestBenchmarkSurface(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 2; i++ {
		if res, resp := postQuery(t, ts.URL, QueryRequest{Repo: "people", Query: `/site/people/person/name/text()`}); res == nil {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("query failed: %d %s", resp.StatusCode, b)
		}
	}
	if res, resp := postAppend(t, ts.URL, AppendRequest{Repo: "numbers", Doc: `<data><v>5</v><v>6</v></data>`}); res == nil {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("append failed: %d %s", resp.StatusCode, b)
	}

	stream := func(query string) (string, http.Header) {
		t.Helper()
		body, _ := json.Marshal(QueryRequest{Repo: "numbers", Query: query})
		resp, err := http.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", query, resp.StatusCode, out)
		}
		return string(out), resp.Trailer
	}
	if out, tr := stream(`/data/v/text()`); out != "1\n2\n3\n4\n5\n6\n" || tr.Get("X-Xquec-Count") != "6" || tr.Get("X-Xquec-Error") != "" {
		t.Fatalf("healthy stream: body %q, trailers %v", out, tr)
	}
	// 10 mod (v - 3) fails on the third v, after the first item was sent.
	out, tr := stream(`FOR $v IN /data/v RETURN 10 mod (number($v) - 3)`)
	sent := strings.Count(out, "\n")
	if sent == 0 || tr.Get("X-Xquec-Count") != strconv.Itoa(sent) || !strings.Contains(tr.Get("X-Xquec-Error"), "10 mod 0") {
		t.Fatalf("failing stream: body %q, trailers %v", out, tr)
	}

	samples := scrape(t, ts.URL)
	for name, min := range map[string]float64{
		"xquecd_plan_cache_hits_total": 1,
		"xquecd_repo_cache_hits_total": 1,
		"xquecd_value_decodes_total":   1,
	} {
		if v, ok := samples[name]; !ok || v < min {
			t.Errorf("/metrics: %s = %v (present %v), want >= %v", name, v, ok, min)
		}
	}
	if v := samples["xquecd_repo_segments"]; v != 2 {
		t.Errorf("/metrics: xquecd_repo_segments = %v, want 2 after one append", v)
	}
}

// exposition is the body of GET /metrics.
func exposition(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// scrape reads GET /metrics the way bench/ does (parseMetrics).
func scrape(t testing.TB, url string) map[string]float64 {
	t.Helper()
	return parseMetrics(exposition(t, url))
}

// parseMetrics parses an exposition as the load generator under bench/
// parses it: one value per sample name with its labels cut off, so of a
// labeled family the last sample wins.
func parseMetrics(text string) map[string]float64 {
	samples := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			name, _, _ = strings.Cut(name, "{")
			samples[name] = v
		}
	}
	return samples
}
