package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// chunkRecorder is a ResponseWriter that records the byte segments
// between Flush calls — the observable for "the response left the
// server before evaluation finished".
type chunkRecorder struct {
	header  http.Header
	status  int
	current bytes.Buffer
	chunks  []string
}

func newChunkRecorder() *chunkRecorder {
	return &chunkRecorder{header: http.Header{}, status: http.StatusOK}
}

func (c *chunkRecorder) Header() http.Header { return c.header }
func (c *chunkRecorder) WriteHeader(code int) {
	c.status = code
}
func (c *chunkRecorder) Write(p []byte) (int, error) {
	return c.current.Write(p)
}
func (c *chunkRecorder) Flush() {
	if c.current.Len() > 0 {
		c.chunks = append(c.chunks, c.current.String())
		c.current.Reset()
	}
}

// body returns everything written, flushed or not.
func (c *chunkRecorder) body() string {
	return strings.Join(c.chunks, "") + c.current.String()
}

func streamRequest(t *testing.T, req QueryRequest) *http.Request {
	t.Helper()
	body, _ := json.Marshal(req)
	return httptest.NewRequest(http.MethodPost, "/query/stream", bytes.NewReader(body))
}

// TestStreamChunksBeforeCompletion drives /query/stream with a flush
// interval of one item: a four-item result must arrive as more than one
// chunk, i.e. the first items were flushed to the client while later
// items were still being produced.
func TestStreamChunksBeforeCompletion(t *testing.T) {
	srv, _ := newTestServer(t, Config{FlushEvery: 1})
	rec := newChunkRecorder()
	srv.Handler().ServeHTTP(rec, streamRequest(t, QueryRequest{
		Repo: "numbers", Query: `/data/v/text()`,
	}))
	if rec.status != http.StatusOK {
		t.Fatalf("status = %d, body = %q", rec.status, rec.body())
	}
	if len(rec.chunks) < 2 {
		t.Fatalf("response arrived in %d chunk(s): %q — not streamed", len(rec.chunks), rec.chunks)
	}
	if got := rec.body(); got != "1\n2\n3\n4\n" {
		t.Fatalf("body = %q", got)
	}
	if ct := rec.header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if n := rec.header.Get("X-Xquec-Count"); n != "4" {
		t.Fatalf("X-Xquec-Count = %q", n)
	}
	if e := rec.header.Get("X-Xquec-Error"); e != "" {
		t.Fatalf("unexpected stream error %q", e)
	}
	var prom strings.Builder
	srv.writeMetrics(&prom)
	m := parseMetrics(prom.String())
	if n := m["xquecd_stream_queries_total"]; n != 1 {
		t.Fatalf("xquecd_stream_queries_total = %v", n)
	}
	if m["xquecd_first_byte_seconds_count"] != 1 || m["xquecd_first_byte_seconds_sum"] <= 0 {
		t.Fatal("first-byte latency not observed")
	}
}

// TestStreamOverHTTP exercises the endpoint through a real HTTP stack:
// chunked transfer, headers, and the count trailer.
func TestStreamOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{FlushEvery: 1})
	body, _ := json.Marshal(QueryRequest{Repo: "numbers", Query: `/data/v/text()`})
	resp, err := http.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "1\n2\n3\n4\n" {
		t.Fatalf("body = %q", out)
	}
	// Trailers are available only after the body is fully read.
	if n := resp.Trailer.Get("X-Xquec-Count"); n != "4" {
		t.Fatalf("trailer count = %q (trailer: %v)", n, resp.Trailer)
	}
}

func TestStreamErrorStatusMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		req    QueryRequest
		status int
	}{
		{"parse error", QueryRequest{Repo: "numbers", Query: `FOR $x IN`}, http.StatusBadRequest},
		{"eval error", QueryRequest{Repo: "numbers", Query: `$undefined`}, http.StatusUnprocessableEntity},
		{"unknown repo", QueryRequest{Repo: "nope", Query: `/data/v/text()`}, http.StatusNotFound},
	}
	for _, tc := range cases {
		for _, path := range []string{"/query", "/query/stream"} {
			body, _ := json.Marshal(tc.req)
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("%s on %s: status = %d, want %d", tc.name, path, resp.StatusCode, tc.status)
			}
		}
	}
}
