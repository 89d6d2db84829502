package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"xquec"
	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
)

// BenchmarkServerQuery is the serving-throughput baseline recorded in
// EXPERIMENTS.md: an in-process httptest server over an XMark
// repository, parallel clients re-issuing the Q1 exact-match lookup so
// both caches are hot — the steady-state shape of a repeated workload.
func BenchmarkServerQuery(b *testing.B) {
	dir := b.TempDir()
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 7})
	db, err := xquec.Compress(doc, xquec.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.SaveFile(filepath.Join(dir, "auction.xqc")); err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{RepoDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(QueryRequest{Repo: "auction", Query: xmarkq.Q1})
	// Warm both caches so the benchmark measures steady-state serving.
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("warmup status %d", resp.StatusCode)
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			var out QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				b.Error(err)
			}
			resp.Body.Close()
			if out.Count == 0 {
				b.Errorf("empty result: %+v", out)
				return
			}
		}
	})
	b.StopTimer()
	if st := srv.plans.Stats(); st.Hits == 0 {
		b.Fatalf("plan cache never hit: %+v", st)
	}
}
