package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
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

// BenchmarkServerStream is the socket side of bench/'s stream_large
// workload: an in-process httptest server over the scale-8 XMark
// repository, one client draining each of the five stream_large
// requests (Q2, Q17, Q19, every item as a constructed element, every
// person as a whole subtree) from POST /query/stream over loopback.
// BenchmarkStreamLarge (package xquec) stops at AppendXML; this one
// includes the block writes, net/http's chunking and the client's
// reads. MB/s is over the body bytes.
func BenchmarkServerStream(b *testing.B) {
	dir := b.TempDir()
	db, err := xquec.Compress(datagen.XMark(datagen.XMarkConfig{Scale: 8, Seed: 1}), xquec.Options{})
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

	texts := [][2]string{
		{"items", `FOR $i IN /site/regions//item RETURN <item name="{$i/name/text()}">{$i/description}</item>`},
		{"persons", `FOR $p IN /site/people/person RETURN $p`},
	}
	for _, q := range append(xmarkq.Queries(), xmarkq.ExtendedQueries()...) {
		switch q.ID {
		case "q2", "q17", "q19":
			texts = append(texts, [2]string{q.ID, q.Text})
		}
	}
	for _, q := range texts {
		body, _ := json.Marshal(QueryRequest{Repo: "auction", Query: q[1]})
		drain := func(b *testing.B) (size int64, items int) {
			resp, err := http.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			defer resp.Body.Close()
			if size, err = io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
				b.Fatalf("%s: status %d, %v", q[0], resp.StatusCode, err)
			}
			if items, err = strconv.Atoi(resp.Trailer.Get("X-Xquec-Count")); err != nil || items == 0 || resp.Trailer.Get("X-Xquec-Error") != "" {
				b.Fatalf("%s: trailers %v", q[0], resp.Trailer)
			}
			return size, items
		}
		b.Run(q[0], func(b *testing.B) {
			size, items := drain(b) // warms the pool and the plan cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drain(b)
			}
			b.SetBytes(size)
			b.ReportMetric(float64(items), "items/op")
		})
	}
}
