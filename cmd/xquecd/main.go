// Command xquecd is the XQueC query daemon: it serves XQuery over a
// directory of compressed .xqc repositories, keeping hot repositories
// resident and caching compiled queries so repeated workload queries
// skip the parser.
//
// Usage:
//
//	xquecd -repos ./repos [-addr :8090] [-pool 8] [-plans 256]
//	       [-timeout 30s] [-max-concurrent 16] [-compact-after 0]
//	       [-max-append-bytes 64MiB]
//	       [-pprof localhost:6060]
//
// Each query is evaluated serially on one goroutine; queries run
// concurrently with each other, up to -max-concurrent at a time.
// -query-parallelism is accepted and ignored until the benchmark's load
// generator stops passing it (ROADMAP item 1(d)).
//
// The repository directory may hold single repositories (name.xqc) and
// segment-set manifests (name.xqcg, from appends; name.xqcs, from
// SaveFile of a database compressed with Options.Shards); all are
// addressed by bare name, with name.xqcg taking precedence. A query over
// a segment set runs on the set's fused store, its one resident store,
// built once per open or append (xquecd_fusions_total); a failure anywhere in the corpus
// fails the query, exactly as it does on a single repository. Appending
// to any of them writes name.xqcg.
//
// POST /append grows a repository without rebuilding it: the document
// becomes a new append segment, the set is persisted and atomically
// swapped into the pool (in-flight queries keep their snapshot), and
// once the segment count reaches -compact-after a background compaction
// folds the set back into one freshly partitioned segment.
//
// API:
//
//	POST /query         {"repo":"auction","query":"count(/site//item)","timeout_ms":500}
//	POST /query/stream  same body; chunked newline-separated items,
//	                    the first flushed alone, then 32 KiB blocks
//	POST /append        {"repo":"auction","doc":"<site>...</site>","compact":false}
//	GET  /repos         available and resident repositories
//	GET  /healthz       liveness probe
//	GET  /metrics       Prometheus text format
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xquec/internal/server"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	repos := flag.String("repos", "", "directory of .xqc repository files (required)")
	pool := flag.Int("pool", 8, "max resident repositories")
	plans := flag.Int("plans", 256, "max cached query plans")
	timeout := flag.Duration("timeout", 30*time.Second, "per-query evaluation deadline")
	maxConc := flag.Int("max-concurrent", 0, "max concurrently evaluating queries (0 = 2×GOMAXPROCS)")
	flag.Int("query-parallelism", 1, "ignored: every query runs serially on one goroutine (accepted until ROADMAP item 1(d) drops it)")
	compactAfter := flag.Int("compact-after", 0, "background-compact a repository once an append leaves it with this many segments (0 = only on request)")
	maxAppend := flag.Int64("max-append-bytes", 0, "max /append request body size in bytes (0 = 64 MiB)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); empty = off")
	flag.Parse()

	if *repos == "" {
		fmt.Fprintln(os.Stderr, "xquecd: -repos is required")
		flag.Usage()
		os.Exit(2)
	}
	srv, err := server.New(server.Config{
		RepoDir:        *repos,
		PoolSize:       *pool,
		PlanCacheSize:  *plans,
		MaxConcurrent:  *maxConc,
		QueryTimeout:   *timeout,
		CompactAfter:   *compactAfter,
		MaxAppendBytes: *maxAppend,
	})
	if err != nil {
		log.Fatalf("xquecd: %v", err)
	}
	if *pprofAddr != "" {
		// Side listener so profiling endpoints never share the public
		// address; the import registers the handlers on DefaultServeMux.
		go func() {
			log.Printf("xquecd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("xquecd: pprof listener: %v", err)
			}
		}()
	}
	names, err := srv.Pool().Available()
	if err != nil {
		log.Fatalf("xquecd: %v", err)
	}
	log.Printf("xquecd: serving %d repositories from %s on %s (pool=%d plans=%d timeout=%v)",
		len(names), *repos, *addr, *pool, *plans, *timeout)
	for _, n := range names {
		log.Printf("xquecd:   repo %s", n)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("xquecd: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("xquecd: %v", err)
	}
	<-done
}
