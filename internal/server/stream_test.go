package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"xquec/internal/storage"
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

// TestStreamChunksBeforeCompletion: a four-item result must arrive as
// more than one chunk, i.e. the first item was flushed to the client
// while later items were still being produced.
func TestStreamChunksBeforeCompletion(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
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
	_, ts := newTestServer(t, Config{})
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

// rowsServer serves "rows", n <i> elements of two values each, whose
// n-th (1-based) is numbered 0: `FOR $i IN /d/i RETURN 10 mod
// number($i/n)` fails there, after the items before it.
func rowsServer(t *testing.T, n, failAt int) *Server {
	t.Helper()
	dir := t.TempDir()
	var sb strings.Builder
	sb.WriteString("<d>")
	for i := 1; i <= n; i++ {
		k := i
		if i == failAt {
			k = 0
		}
		fmt.Fprintf(&sb, "<i><v>value-%06d</v><n>%d</n></i>", i, k)
	}
	sb.WriteString("</d>")
	writeRepo(t, dir, "rows", sb.String())
	srv, err := New(Config{RepoDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// lingerClock stands in a clock for the blocks' linger timers until the
// test ends: on it, every item takes longer than streamLinger to produce
// when slow is set, and none does otherwise.
func lingerClock(t *testing.T, slow bool) {
	saved := afterLinger
	t.Cleanup(func() { afterLinger = saved })
	afterLinger = func(f func()) func() bool {
		if slow {
			f()
		}
		return func() bool { return !slow }
	}
}

// TestStreamBlocks pins the block policy on a result of many blocks: the
// first chunk is the first item's line alone, every later chunk but the
// last holds at least streamBlock bytes, and the body and X-Xquec-Count
// are what /query answers.
func TestStreamBlocks(t *testing.T) {
	lingerClock(t, false)
	srv := rowsServer(t, 6000, -1)
	const q = `FOR $i IN /d/i RETURN $i`
	rec := newChunkRecorder()
	srv.Handler().ServeHTTP(rec, streamRequest(t, QueryRequest{Repo: "rows", Query: q}))
	rec.Flush()
	if rec.status != http.StatusOK || len(rec.chunks) < 4 {
		t.Fatalf("status %d, %d chunks", rec.status, len(rec.chunks))
	}
	if first := "<i><v>value-000001</v><n>1</n></i>\n"; rec.chunks[0] != first {
		t.Fatalf("first chunk %.100q, want the first item alone, %q", rec.chunks[0], first)
	}
	for i, c := range rec.chunks[1 : len(rec.chunks)-1] {
		if len(c) < streamBlock || !strings.HasSuffix(c, "\n") {
			t.Fatalf("chunk %d: %d bytes, want a block of whole items of at least %d", i+1, len(c), streamBlock)
		}
	}
	jrec := httptest.NewRecorder()
	body, _ := json.Marshal(QueryRequest{Repo: "rows", Query: q})
	srv.Handler().ServeHTTP(jrec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	var res QueryResponse
	if err := json.NewDecoder(jrec.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if got := rec.body(); got != res.Result+"\n" || rec.header.Get("X-Xquec-Count") != strconv.Itoa(res.Count) || res.Count != 6000 {
		t.Fatalf("stream: %d bytes, count %s; /query: %d bytes, count %d",
			len(got), rec.header.Get("X-Xquec-Count"), len(res.Result)+1, res.Count)
	}
}

// TestStreamErrorAfterBlocks: an evaluation error several blocks into
// the stream leaves every item before it in the body — the pending block
// included — and the count trailer counts exactly those.
func TestStreamErrorAfterBlocks(t *testing.T) {
	srv := rowsServer(t, 6000, 4000)
	rec := newChunkRecorder()
	srv.Handler().ServeHTTP(rec, streamRequest(t, QueryRequest{Repo: "rows", Query: `FOR $i IN /d/i RETURN 10 mod number($i/n)`}))
	lines := strings.Count(rec.body(), "\n")
	if rec.status != http.StatusOK || lines != 3999 || rec.header.Get("X-Xquec-Count") != "3999" ||
		!strings.Contains(rec.header.Get("X-Xquec-Error"), "10 mod 0") {
		t.Fatalf("status %d, %d lines in the body, trailers %v", rec.status, lines, rec.header)
	}
}

// hangUpRecorder is a chunkRecorder whose client hangs up once the first
// flush has reached it: every later write fails. at is what DecodeOps
// read then; failed is the write that failed.
type hangUpRecorder struct {
	*chunkRecorder
	at     int64
	failed []byte
}

var errHungUp = errors.New("client hung up")

func (h *hangUpRecorder) Write(p []byte) (int, error) {
	if len(h.chunks) > 0 {
		h.failed = append([]byte(nil), p...)
		return 0, errHungUp
	}
	return h.chunkRecorder.Write(p)
}

func (h *hangUpRecorder) Flush() {
	h.chunkRecorder.Flush()
	if len(h.chunks) == 1 && h.at == 0 {
		h.at = storage.DecodeOps()
	}
}

// TestStreamStopsWithinABlockOfAHangUp: once the client is gone,
// evaluation stops at the first block write that fails — it decodes the
// values of at most the items of that one block, never the result's rest.
func TestStreamStopsWithinABlockOfAHangUp(t *testing.T) {
	lingerClock(t, false)
	const n = 6000
	srv := rowsServer(t, n, -1)
	rec := &hangUpRecorder{chunkRecorder: newChunkRecorder()}
	srv.Handler().ServeHTTP(rec, streamRequest(t, QueryRequest{Repo: "rows", Query: `FOR $i IN /d/i RETURN $i`}))
	after := storage.DecodeOps() - rec.at
	items := bytes.Count(rec.failed, []byte("\n")) // of two values each
	if len(rec.failed) < streamBlock || !bytes.HasSuffix(rec.failed, []byte("</i>\n")) || after != int64(2*items) || items > n/4 {
		t.Fatalf("after the hang-up: a write of %d bytes (%d items) failed and %d values were decoded",
			len(rec.failed), items, after)
	}
	if rec.header.Get("X-Xquec-Count") != "1" {
		t.Fatalf("X-Xquec-Count = %q, want the one item the client got", rec.header.Get("X-Xquec-Count"))
	}
}

// TestStreamLingerFlushes stands in a clock on which every item takes
// longer than streamLinger to produce: no block waits to fill, each goes
// out as the next item arrives, long before the result's end.
func TestStreamLingerFlushes(t *testing.T) {
	lingerClock(t, true)
	srv := rowsServer(t, 7, -1)
	rec := newChunkRecorder()
	srv.Handler().ServeHTTP(rec, streamRequest(t, QueryRequest{Repo: "rows", Query: `FOR $i IN /d/i RETURN string($i/n)`}))
	rec.Flush()
	if want := []string{"1\n", "2\n3\n", "4\n5\n", "6\n7\n"}; strings.Join(rec.chunks, "|") != strings.Join(want, "|") {
		t.Fatalf("chunks %q, want %q", rec.chunks, want)
	}
}
