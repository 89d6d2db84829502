package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xquec/internal/partition"
)

func postAppend(t testing.TB, url string, req AppendRequest) (*AppendResponse, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/append", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body = io.NopCloser(bytes.NewReader(b))
		return nil, resp
	}
	var out AppendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp
}

func TestAppendGrowsRepository(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	fusions := partition.Snapshot().Fusions

	before, _ := postQuery(t, ts.URL, QueryRequest{Repo: "numbers", Query: `count(/data/v)`})
	if before == nil || before.Result != "4" {
		t.Fatalf("before = %+v", before)
	}

	res, resp := postAppend(t, ts.URL, AppendRequest{Repo: "numbers", Doc: `<data><v>5</v><v>6</v></data>`})
	if res == nil {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("append failed: %d %s", resp.StatusCode, b)
	}
	if res.Segments != 2 {
		t.Fatalf("segments = %d, want 2", res.Segments)
	}
	if res.Bytes == 0 {
		t.Fatalf("bytes = 0")
	}

	// The swap is immediate: the very next query sees the appended data
	// (and must not be served from the pre-append plan generation).
	after, _ := postQuery(t, ts.URL, QueryRequest{Repo: "numbers", Query: `count(/data/v)`})
	if after == nil || after.Result != "6" {
		t.Fatalf("after = %+v", after)
	}
	order, _ := postQuery(t, ts.URL, QueryRequest{Repo: "numbers", Query: `FOR $v IN /data/v RETURN $v/text()`})
	if order == nil || order.Result != "1\n2\n3\n4\n5\n6" {
		t.Fatalf("order = %+v", order)
	}

	// The set persisted: the manifest is on disk and /repos still lists
	// one "numbers".
	if _, err := os.Stat(filepath.Join(srv.cfg.RepoDir, "numbers.xqcg")); err != nil {
		t.Fatalf("manifest not persisted: %v", err)
	}
	names, err := srv.Pool().Available()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, n := range names {
		if n == "numbers" {
			count++
		}
		if strings.Contains(n, ".seg-") {
			t.Fatalf("segment file leaked into repo listing: %q", n)
		}
	}
	if count != 1 {
		t.Fatalf("repo listing = %v", names)
	}

	m := srv.Metrics().Snapshot()
	if m.AppendsTotal != 1 || m.AppendBytes == 0 {
		t.Fatalf("append metrics = %+v", m)
	}
	if m.RepoSegments["numbers"] != 2 {
		t.Fatalf("repo segments = %v", m.RepoSegments)
	}
	// The count after the append could not scatter: it paid for one
	// fusion of the two segments, and the metrics say so.
	if now := partition.Snapshot(); now.Fusions <= fusions || now.FusionNanos == 0 {
		t.Fatalf("fusions = %d (was %d), %d ns", now.Fusions, fusions, now.FusionNanos)
	}
	var prom bytes.Buffer
	srv.Metrics().WritePrometheus(&prom)
	for _, series := range []string{"\nxquecd_fusions_total ", "\nxquecd_fusion_seconds_total "} {
		i := strings.Index(prom.String(), series)
		if i < 0 || strings.HasPrefix(prom.String()[i+len(series):], "0\n") {
			t.Fatalf("/metrics lacks a non-zero %q", series)
		}
	}
}

func TestAppendSynchronousCompact(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if res, _ := postAppend(t, ts.URL, AppendRequest{Repo: "numbers", Doc: `<data><v>5</v></data>`}); res == nil || res.Segments != 2 {
		t.Fatalf("first append = %+v", res)
	}
	res, resp := postAppend(t, ts.URL, AppendRequest{Repo: "numbers", Doc: `<data><v>6</v></data>`, Compact: true})
	if res == nil {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("append failed: %d %s", resp.StatusCode, b)
	}
	if !res.Compacted || res.Segments != 1 {
		t.Fatalf("compacted append = %+v", res)
	}
	out, _ := postQuery(t, ts.URL, QueryRequest{Repo: "numbers", Query: `count(/data/v)`})
	if out == nil || out.Result != "6" {
		t.Fatalf("after compact = %+v", out)
	}
	m := srv.Metrics().Snapshot()
	if m.CompactionsTotal != 1 {
		t.Fatalf("compactions = %d", m.CompactionsTotal)
	}
}

func TestAppendBackgroundCompaction(t *testing.T) {
	srv, ts := newTestServer(t, Config{CompactAfter: 3})
	for i := 0; i < 2; i++ {
		res, resp := postAppend(t, ts.URL, AppendRequest{Repo: "numbers", Doc: `<data><v>9</v></data>`})
		if res == nil {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("append %d failed: %d %s", i, resp.StatusCode, b)
		}
		if i == 1 && !res.CompactionStarted {
			t.Fatalf("append to 3 segments should start compaction: %+v", res)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := srv.Metrics().Snapshot()
		if m.CompactionsTotal >= 1 {
			if m.RepoSegments["numbers"] != 1 {
				t.Fatalf("post-compaction segments = %v", m.RepoSegments)
			}
			break
		}
		if m.CompactionErrors > 0 {
			t.Fatalf("background compaction failed: %+v", m)
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never finished: %+v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
	out, _ := postQuery(t, ts.URL, QueryRequest{Repo: "numbers", Query: `count(/data/v)`})
	if out == nil || out.Result != "6" {
		t.Fatalf("after background compact = %+v", out)
	}
}

func TestAppendValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  AppendRequest
		code int
	}{
		{"unknown repo", AppendRequest{Repo: "nope", Doc: `<data/>`}, http.StatusNotFound},
		{"missing doc", AppendRequest{Repo: "numbers"}, http.StatusBadRequest},
		{"root mismatch", AppendRequest{Repo: "numbers", Doc: `<other><v>1</v></other>`}, http.StatusBadRequest},
		{"attributed root", AppendRequest{Repo: "numbers", Doc: `<data id="x"><v>1</v></data>`}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		res, resp := postAppend(t, ts.URL, tc.req)
		if res != nil || resp.StatusCode != tc.code {
			t.Errorf("%s: res=%+v status=%d, want %d", tc.name, res, resp.StatusCode, tc.code)
		}
	}
}

// TestAppendDepthBomb: a million nested elements answer 400 — a syntax
// error, where the recursive parser overflowed the stack of a process no
// recover could save — and the repository goes on serving reads and
// taking appends.
func TestAppendDepthBomb(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bomb := "<data>" + strings.Repeat("<v>", 1_000_000)
	res, resp := postAppend(t, ts.URL, AppendRequest{Repo: "numbers", Doc: bomb + strings.Repeat("</v>", 1_000_000) + "</data>"})
	if res != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nesting bomb: res=%+v status=%d, want 400", res, resp.StatusCode)
	}
	if b, _ := io.ReadAll(resp.Body); !strings.Contains(string(b), "element depth exceeds 65535") {
		t.Fatalf("nesting bomb: %s", b)
	}
	if out, _ := postQuery(t, ts.URL, QueryRequest{Repo: "numbers", Query: `count(/data/v)`}); out == nil || out.Result != "4" {
		t.Fatalf("query after the bomb = %+v", out)
	}
	if res, resp := postAppend(t, ts.URL, AppendRequest{Repo: "numbers", Doc: `<data><v>5</v></data>`}); res == nil || res.Segments != 2 {
		t.Fatalf("append after the bomb: res=%+v status=%d", res, resp.StatusCode)
	}
	if out, _ := postQuery(t, ts.URL, QueryRequest{Repo: "numbers", Query: `count(/data/v)`}); out == nil || out.Result != "5" {
		t.Fatalf("query after the next append = %+v", out)
	}
}
