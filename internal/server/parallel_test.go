package server

import (
	"runtime"
	"testing"
)

// TestServerParallelismOverride checks that requests may raise the
// configured worker budget (capped at GOMAXPROCS) and that results are
// identical either way.
func TestServerParallelismOverride(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueryParallelism: 1})

	q := QueryRequest{Repo: "people", Query: `count(/site/people/person)`}
	serial, _ := postQuery(t, ts.URL, q)
	if serial == nil {
		t.Fatal("serial query failed")
	}
	q.Parallelism = 4
	par, _ := postQuery(t, ts.URL, q)
	if par == nil {
		t.Fatal("parallel query failed")
	}
	if par.Result != serial.Result || par.Count != serial.Count {
		t.Fatalf("parallel result differs: %+v vs %+v", par, serial)
	}

	// The override is capped at GOMAXPROCS; absurd requests must clamp,
	// not spawn unbounded workers.
	if got := srv.parallelismFor(QueryRequest{Parallelism: 1 << 20}); got > runtime.GOMAXPROCS(0) {
		t.Fatalf("parallelismFor = %d, want <= GOMAXPROCS", got)
	}
	if got := srv.parallelismFor(QueryRequest{}); got != 1 {
		t.Fatalf("default parallelism = %d, want configured 1", got)
	}
}
