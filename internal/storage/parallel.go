package storage

import (
	"sync/atomic"
	"time"

	"xquec/internal/xpar"
)

// forEachIndex runs fn(0..n-1) on up to `workers` goroutines with
// first-error cancellation and index-ordered result placement. The
// implementation lives in xpar so the query evaluator shares the same
// pool semantics; the wrapper keeps this package's call sites stable.
func forEachIndex(workers, n int, fn func(i int) error) error {
	return xpar.ForEach(workers, n, fn)
}

// BuildStats records the wall-clock time Load spent in each phase of the
// two-phase ingestion pipeline. Parse is the serial SAX pass, which writes
// the structure arrays; Classify, Train and Encode are the parallel
// fan-out (type inference, source-model training, value encoding +
// container sorting + value-ref resolution); Index is the serial freeze of
// the succinct structure (rank/select and navigation directories) and the
// summary statistics. Not persisted: repositories opened from disk report
// a zero BuildStats.
type BuildStats struct {
	Parallelism int
	Parse       time.Duration
	Classify    time.Duration
	Train       time.Duration
	Encode      time.Duration
	Index       time.Duration
}

// Total returns the summed phase time.
func (b BuildStats) Total() time.Duration {
	return b.Parse + b.Classify + b.Train + b.Encode + b.Index
}

// buildTotals accumulates phase times across every Load in the process,
// so long-running services (xquecd) can export ingestion timings as
// monotonic counters.
var buildTotals struct {
	loads                                 atomic.Int64
	parse, classify, train, encode, index atomic.Int64
}

// BuildTotals is the process-wide accumulation of BuildStats over all
// Load calls, for metrics export.
type BuildTotals struct {
	Loads                                           int64
	ParseNs, ClassifyNs, TrainNs, EncodeNs, IndexNs int64
}

// LoadBuildTotals returns the process-wide ingestion phase totals.
func LoadBuildTotals() BuildTotals {
	return BuildTotals{
		Loads:      buildTotals.loads.Load(),
		ParseNs:    buildTotals.parse.Load(),
		ClassifyNs: buildTotals.classify.Load(),
		TrainNs:    buildTotals.train.Load(),
		EncodeNs:   buildTotals.encode.Load(),
		IndexNs:    buildTotals.index.Load(),
	}
}

func addBuildTotals(b BuildStats) {
	buildTotals.loads.Add(1)
	buildTotals.parse.Add(int64(b.Parse))
	buildTotals.classify.Add(int64(b.Classify))
	buildTotals.train.Add(int64(b.Train))
	buildTotals.encode.Add(int64(b.Encode))
	buildTotals.index.Add(int64(b.Index))
}
