package partition

import "sync/atomic"

// Process-wide scatter-gather and fusion counters, exported by xquecd
// as the xquecd_shard_* and xquecd_fusion* metrics: package-global
// monotonic counters, read on every scrape.
var counters struct {
	scatterQueries  atomic.Int64
	fallbackQueries atomic.Int64
	shardStreams    atomic.Int64
	shardFailures   atomic.Int64
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
	// ShardStreams counts per-shard evaluations dispatched;
	// ShardFailures counts those that ended in error.
	ShardStreams  int64
	ShardFailures int64
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
		MergedItems:     counters.mergedItems.Load(),
		Fusions:         counters.fusions.Load(),
		FusionNanos:     counters.fusionNanos.Load(),
	}
}
