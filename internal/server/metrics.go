package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"xquec/internal/partition"
	"xquec/internal/storage"
)

// latencyBounds are the histogram bucket upper bounds in seconds; the
// implicit final bucket is +Inf.
var latencyBounds = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Metrics holds the counters only the request handlers can keep: what
// the queries and appends they served did, and how long they took.
// Everything else /metrics exports is read at scrape time from the
// component that owns it (see Server.writeMetrics). All methods are
// safe for concurrent use.
type Metrics struct {
	QueriesTotal  atomic.Int64 // completed /query requests, any outcome
	StreamQueries atomic.Int64 // subset served via /query/stream
	QueryErrors   atomic.Int64 // failed with a query/repo error
	Timeouts      atomic.Int64 // aborted by deadline or client disconnect
	InFlight      atomic.Int64 // gauge: queries currently evaluating

	ResultItems atomic.Int64 // result sequence items returned
	ResultBytes atomic.Int64 // serialized result bytes returned

	// Write-path traffic: documents appended and committed via /append,
	// their uncompressed bytes, failed appends, compactions completed
	// and failed, and a gauge of compactions currently running.
	AppendsTotal       atomic.Int64
	AppendBytes        atomic.Int64
	AppendErrors       atomic.Int64
	CompactionsTotal   atomic.Int64
	CompactionErrors   atomic.Int64
	CompactionsRunning atomic.Int64

	latency    histogram // query wall-clock duration
	firstByte  histogram // /query/stream time-to-first-item
	compaction histogram // compaction wall-clock duration
}

// histogram is a fixed-bucket duration histogram over latencyBounds.
type histogram struct {
	count atomic.Int64
	sumUs atomic.Int64 // microseconds, to keep the sum integral
	bkt   [len(latencyBounds) + 1]atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	h.count.Add(1)
	h.sumUs.Add(d.Microseconds())
	i := sort.SearchFloat64s(latencyBounds[:], d.Seconds())
	h.bkt[i].Add(1)
}

// ObserveLatency records one query's wall-clock duration.
func (m *Metrics) ObserveLatency(d time.Duration) { m.latency.observe(d) }

// ObserveFirstByte records a streaming query's time-to-first-item: how
// long a client waits before the first result byte is flushed.
func (m *Metrics) ObserveFirstByte(d time.Duration) { m.firstByte.observe(d) }

// ObserveCompaction records one completed compaction's duration.
func (m *Metrics) ObserveCompaction(d time.Duration) { m.compaction.observe(d) }

// writeMetrics writes GET /metrics in Prometheus text exposition format
// (version 0.0.4). Each number has one owner and is read from it here:
// the pool and the plan cache count their own hits, misses and resident
// bytes, the Writers their segments, internal/partition its fusion
// counters, internal/storage its value decodes, and Metrics what
// the handlers served. README's "series | question it answers" table has
// a row for every family written here (TestMetricsDocumented).
func (s *Server) writeMetrics(w io.Writer) {
	m := s.metrics
	pool, plans, part := s.pool.Stats(), s.plans.Stats(), partition.Snapshot()
	family := func(name, typ, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	counter := func(name, help string, v int64) {
		family(name, "counter", help)
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	gauge := func(name, help string, v int64) {
		family(name, "gauge", help)
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	perRepo := func(name, help string, byRepo map[string]int64) {
		if len(byRepo) == 0 {
			return
		}
		names := make([]string, 0, len(byRepo))
		for name := range byRepo {
			names = append(names, name)
		}
		sort.Strings(names)
		family(name, "gauge", help)
		for _, repo := range names {
			fmt.Fprintf(w, "%s{repo=%q} %d\n", name, repo, byRepo[repo])
		}
	}
	histo := func(name, help string, h *histogram) {
		family(name, "histogram", help)
		cum := int64(0)
		for i, b := range latencyBounds {
			cum += h.bkt[i].Load()
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(b, 'g', -1, 64), cum)
		}
		cum += h.bkt[len(latencyBounds)].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumUs.Load())/1e6)
		fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
	}

	counter("xquecd_queries_total", "Queries served (any outcome).", m.QueriesTotal.Load())
	counter("xquecd_stream_queries_total", "Queries served via /query/stream.", m.StreamQueries.Load())
	counter("xquecd_query_errors_total", "Queries failed with an error.", m.QueryErrors.Load())
	counter("xquecd_query_timeouts_total", "Queries aborted by deadline or disconnect.", m.Timeouts.Load())
	gauge("xquecd_in_flight_queries", "Queries currently evaluating.", m.InFlight.Load())
	histo("xquecd_query_duration_seconds", "Query latency.", &m.latency)
	histo("xquecd_first_byte_seconds", "Streaming time-to-first-item.", &m.firstByte)
	counter("xquecd_result_items_total", "Result items returned.", m.ResultItems.Load())
	counter("xquecd_result_bytes_total", "Serialized result bytes returned.", m.ResultBytes.Load())

	counter("xquecd_repo_cache_hits_total", "Repository pool lookups served by a resident handle (queries, streams, /append and ?explain=1).", pool.Hits)
	counter("xquecd_repo_cache_misses_total", "Repository pool lookups that started a load, failed loads included.", pool.Misses)
	perRepo("xquecd_repo_resident_bytes", "In-memory bytes per pool-resident repository.", s.pool.ResidentBytes())
	counter("xquecd_plan_cache_hits_total", "Plan cache hits.", plans.Hits)
	counter("xquecd_plan_cache_misses_total", "Plan cache misses (the query was prepared).", plans.Misses)
	gauge("xquecd_plan_cache_bytes", "Resident plan-cache size (compiled-program bytes).", plans.SizeBytes)
	counter("xquecd_value_decodes_total", "Individual container-value decompressions.", storage.DecodeOps())

	counter("xquecd_appends_total", "Documents appended via /append.", m.AppendsTotal.Load())
	counter("xquecd_append_bytes_total", "Uncompressed bytes of appended documents.", m.AppendBytes.Load())
	counter("xquecd_append_errors_total", "Appends that failed (validation, ingest or persist).", m.AppendErrors.Load())
	counter("xquecd_compactions_total", "Compactions completed.", m.CompactionsTotal.Load())
	counter("xquecd_compaction_errors_total", "Compactions that failed.", m.CompactionErrors.Load())
	gauge("xquecd_compactions_running", "Compactions currently running.", m.CompactionsRunning.Load())
	histo("xquecd_compaction_seconds", "Compaction wall-clock duration.", &m.compaction)
	perRepo("xquecd_repo_segments", "Segment count per appended-to repository.", s.segmentCounts())

	counter("xquecd_fusions_total", "Fused stores built: one per open of a segment set, append commit, or cut.", part.Fusions)
	family("xquecd_fusion_seconds_total", "counter", "Time spent building fused stores.")
	fmt.Fprintf(w, "xquecd_fusion_seconds_total %g\n", float64(part.FusionNanos)/1e9)
}
