package partition

import "sync/atomic"

// Process-wide scatter-gather counters, exported by xquecd as
// xquecd_shard_* metrics (the same pattern as xpar.Snapshot and
// storage.LoadBuildTotals: package-global monotonic counters, snapshot
// on scrape).
var counters struct {
	scatterQueries  atomic.Int64
	fallbackQueries atomic.Int64
	shardStreams    atomic.Int64
	shardFailures   atomic.Int64
	hedgesLaunched  atomic.Int64
	hedgeWins       atomic.Int64
	partialResults  atomic.Int64
	mergedItems     atomic.Int64
	fusions         atomic.Int64
	fusionNanos     atomic.Int64
}

// Stats is one snapshot of the scatter-gather counters.
type Stats struct {
	// ScatterQueries is the number of queries answered by per-shard
	// fan-out; FallbackQueries were answered on the fused store because
	// the analyzer declined to scatter them.
	ScatterQueries  int64
	FallbackQueries int64
	// ShardStreams counts per-shard evaluations dispatched (hedges
	// included); ShardFailures counts those that ended in error.
	ShardStreams  int64
	ShardFailures int64
	// HedgesLaunched counts straggler re-dispatches; HedgeWins counts
	// hedges that delivered their first item before the primary.
	HedgesLaunched int64
	HedgeWins      int64
	// PartialResults counts cursors that completed with at least one
	// shard dropped under the partial-results policy.
	PartialResults int64
	// MergedItems is the total number of items the merge emitted.
	MergedItems int64
	// Fused stores built (either layout) and their time: did an append or
	// a swap make the next unscatterable query pay for a rebuild, and how much.
	Fusions     int64
	FusionNanos int64
}

// Snapshot returns the current counter values.
func Snapshot() Stats {
	return Stats{
		ScatterQueries:  counters.scatterQueries.Load(),
		FallbackQueries: counters.fallbackQueries.Load(),
		ShardStreams:    counters.shardStreams.Load(),
		ShardFailures:   counters.shardFailures.Load(),
		HedgesLaunched:  counters.hedgesLaunched.Load(),
		HedgeWins:       counters.hedgeWins.Load(),
		PartialResults:  counters.partialResults.Load(),
		MergedItems:     counters.mergedItems.Load(),
		Fusions:         counters.fusions.Load(),
		FusionNanos:     counters.fusionNanos.Load(),
	}
}
