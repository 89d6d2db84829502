package partition

import "sync/atomic"

// Process-wide fusion counters, exported by xquecd as the xquecd_fusion*
// metrics: package-global monotonic counters, read on every scrape.
var counters struct {
	fusions     atomic.Int64
	fusionNanos atomic.Int64
}

// Stats is one snapshot of the fusion counters.
type Stats struct {
	// Fused stores built (either layout) and their time: did an append or
	// a swap make the next query pay for a rebuild, and how much.
	Fusions     int64
	FusionNanos int64
}

// Snapshot returns the current counter values.
func Snapshot() Stats {
	return Stats{
		Fusions:     counters.fusions.Load(),
		FusionNanos: counters.fusionNanos.Load(),
	}
}
