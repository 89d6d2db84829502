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

	"xquec"
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

	m := scrape(t, ts.URL)
	if m["xquecd_appends_total"] != 1 || m["xquecd_append_bytes_total"] == 0 {
		t.Fatalf("append metrics: %v appends, %v bytes", m["xquecd_appends_total"], m["xquecd_append_bytes_total"])
	}
	if n := m["xquecd_repo_segments"]; n != 2 {
		t.Fatalf("repo segments = %v", n)
	}
	// The append paid for one fusion of the two segments, and the
	// metrics say so.
	if m["xquecd_fusions_total"] <= float64(fusions) || m["xquecd_fusion_seconds_total"] == 0 {
		t.Fatalf("fusions = %v (was %d), %v s", m["xquecd_fusions_total"], fusions, m["xquecd_fusion_seconds_total"])
	}
}

func TestAppendSynchronousCompact(t *testing.T) {
	_, ts := newTestServer(t, Config{})
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
	if n := scrape(t, ts.URL)["xquecd_compactions_total"]; n != 1 {
		t.Fatalf("compactions = %v", n)
	}
}

func TestAppendBackgroundCompaction(t *testing.T) {
	_, ts := newTestServer(t, Config{CompactAfter: 3})
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
		m := scrape(t, ts.URL)
		if m["xquecd_compactions_total"] >= 1 {
			if n := m["xquecd_repo_segments"]; n != 1 {
				t.Fatalf("post-compaction segments = %v", n)
			}
			break
		}
		if m["xquecd_compaction_errors_total"] > 0 {
			t.Fatal("background compaction failed")
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

// TestAppendFusesOnce: one /append builds the new set's fused store
// exactly once, and a burst of reads of every shape after it — a path,
// an aggregate and a point lookup, each repeated — builds none, and each
// read sees the appended person.
func TestAppendFusesOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postQuery(t, ts.URL, QueryRequest{Repo: "people", Query: `count(/site)`}) // the repository is open
	before := scrape(t, ts.URL)["xquecd_fusions_total"]
	if res, resp := postAppend(t, ts.URL, AppendRequest{Repo: "people",
		Doc: `<site><people><person id="p2"><name>Carol</name><age>40</age></person></people></site>`}); res == nil {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("append failed: %d %s", resp.StatusCode, b)
	}
	burst := map[string]string{
		`/site/people/person/name/text()`:                                 "Alice\nBob\nCarol",
		`count(/site/people/person)`:                                      "3",
		`FOR $b IN /site/people/person[@id = "p2"] RETURN $b/name/text()`: "Carol",
	}
	for round := 0; round < 4; round++ {
		for q, want := range burst {
			if out, resp := postQuery(t, ts.URL, QueryRequest{Repo: "people", Query: q}); out == nil || out.Result != want {
				t.Fatalf("round %d, %s = %+v (status %d), want %q", round, q, out, resp.StatusCode, want)
			}
		}
	}
	if n := scrape(t, ts.URL)["xquecd_fusions_total"] - before; n != 1 {
		t.Fatalf("one append and 12 reads built %v fused stores, want 1", n)
	}
}

// TestAppendToCutRepository: a repository compressed with
// Options.Shards and saved as name.xqcs is a segment set like any other,
// so POST /append grows it, and the grown set persists as name.xqcg,
// which the pool resolves first from then on.
func TestAppendToCutRepository(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	db, err := xquec.Compress([]byte(`<data><v>1</v><v>2</v><v>3</v><v>4</v></data>`), xquec.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveFile(filepath.Join(srv.cfg.RepoDir, "cut.xqcs")); err != nil {
		t.Fatal(err)
	}
	res, resp := postAppend(t, ts.URL, AppendRequest{Repo: "cut", Doc: `<data><v>5</v></data>`})
	if res == nil {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("append failed: %d %s", resp.StatusCode, b)
	}
	if res.Segments != 3 {
		t.Fatalf("segments = %d, want 3", res.Segments)
	}
	out, _ := postQuery(t, ts.URL, QueryRequest{Repo: "cut", Query: `FOR $v IN /data/v RETURN $v/text()`})
	if out == nil || out.Result != "1\n2\n3\n4\n5" {
		t.Fatalf("after the append = %+v", out)
	}
	if path, err := srv.Pool().repoPath("cut"); err != nil || filepath.Base(path) != "cut.xqcg" {
		t.Fatalf("cut resolves to %s (%v), want cut.xqcg", path, err)
	}
}
