// Package bench is the table of contents of the repository's benchmark:
// the six workloads xquecload replays against a real xquecd socket, the
// fixed operation counts of their scripts, and the names and units of
// every metric a run prints. cmd/xquecload is the driver; README.md says
// how to run it and which layer each metric belongs to.
//
// Nothing here is measured: the file holds only constants, so that two
// runs of the same seed replay byte-identical scripts and a later change
// that claims a gain cannot move the goalposts without editing this
// directory, which it may not.
package bench

// RefSeconds is the run length (BENCHMARK.json run_seconds) the unit
// counts below were calibrated for on the 2-core reference host; a run
// with another --seconds replays proportionally longer or shorter rounds,
// never shorter than one unit.
const RefSeconds = 8

// Rounds is how many rounds make a run. A round sets up from nothing
// (corpus from the seed, compress, save, a fresh xquecd, warm pass) and
// then every client replays the round's script once; the five rounds of
// a run replay the same script from the same state. qps, cpu_ms_per_req
// and setup_s are the median of the five rounds' values, so a
// neighbour's burst that slows one or two rounds does not move them;
// percentiles are taken over the samples of all five.
const Rounds = 5

// The reference kernel (cmd/xquecload/reference.go), by which a run
// corrects its clock for the speed of the host: each of its parts takes
// about 50 ms on the reference host, the round trips 150 ms.
const (
	RefChaseSteps    = 300000 // dependent loads from a 32 MB array
	RefInflates      = 50     // times a 256 KB document is inflated
	RefTokenizes     = 12     // times it is tokenized by encoding/xml
	RefPings         = 20000  // round trips on a loopback socket ...
	RefPingBytes     = 256    // ... of this many bytes
	RefKernelSeconds = 0.300  // what all of that takes on the reference host when it is quiet
)

// Workload describes one scripted traffic mix: in a round every client
// replays Units units, and UnitOps operations make one unit.
type Workload struct {
	Name    string
	Why     string // one line, copied into BENCHMARK.json
	Clients int    // closed-loop keep-alive clients
	Scale   float64
	Units   int // per client per round at RefSeconds
	UnitOps int
	Unit    string // what one unit is
}

// Ops is the number of scripted operations of one run with the given
// units per round.
func (w Workload) Ops(units int) int { return w.Clients * Rounds * units * w.UnitOps }

// Shape constants of the scripts.
const (
	PointHotTexts      = 32    // distinct hot query texts of point_literal (always plan-cache hits)
	PointHotOf3        = 2     // of every 3 point_literal requests, this many are hot
	PointAbsentPercent = 5     // share of lookups for an id that does not exist
	PointIDs           = 1000  // lookups draw from the first n persons and the first n items
	PointUnitOps       = 300   // requests per point_literal unit
	PartitionCount     = 4     // shards of the .xqcs and segments of the .xqcg in partitioned_mix
	AppendReads        = 12    // reads before each append in append_mixed
	AppendCompactEvery = 4     // every n-th append of a round carries "compact": true
	AppendFragScale    = 0.016 // XMark scale of one appended fragment (≈ 14 KB, 11 persons)
	ColdFiles          = 3     // repositories cold_ingest_open cycles through ...
	ColdPool           = 2     // ... against an xquecd pool of this size, so every request re-opens one
	ColdOpensPerIngest = 3
)

// Workloads lists the six workloads; the names are the contract later
// issues cite.
var Workloads = []Workload{
	{
		Name:    "xmark_mix",
		Why:     "the paper's Fig. 7 XMark queries, plans always cached: vm, algebra, storage decode and succinct navigation are ~all of the time",
		Clients: 2, Scale: 8, Units: 6, UnitOps: 15,
		Unit: "one pass over Q1 Q2 Q3 Q5 Q6 Q7 Q8 Q9 Q13 Q14 Q16 Q17 Q19 Q20 and a seeded Q1-shaped lookup, in a seeded order, via POST /query",
	},
	{
		Name:    "point_literal",
		Why:     "exact-match lookups costing the engine microseconds, a third of them plan-cache misses: HTTP, parse, compile and the plan cache are ~all of the time",
		Clients: 4, Scale: 8, Units: 10, UnitOps: PointUnitOps,
		Unit: "300 lookups of a person or item name by @id: 2/3 from 32 hot texts, 1/3 uniform over the first 1000 ids of either kind, 5 % absent",
	},
	{
		Name:    "stream_large",
		Why:     "big results over /query/stream: serialization, text decode and chunked writes dominate, joins do not; first_byte_p50_ms matters here",
		Clients: 2, Scale: 8, Units: 6, UnitOps: 5,
		Unit: "one pass over all items, Q2, Q17, Q19 and all persons as whole subtrees, via POST /query/stream",
	},
	{
		Name:    "partitioned_mix",
		Why:     "xmark_mix queries through a 4-shard .xqcs and a 4-segment .xqcg of the same corpus: fan-out, rank merge and the fused fallback store; the ratio to xmark_mix is the partition tax",
		Clients: 2, Scale: 8, Units: 5, UnitOps: 14,
		Unit: "Q2 Q13 Q14 Q17 (scatter) and Q8 Q9 Q20 (fallback), each on the shard set and on the segment set",
	},
	{
		Name:    "append_mixed",
		Why:     "one client interleaving reads with POST /append and synchronous compactions: a read-path gain paid for by the write path or by plan-cache invalidation on swap shows only here",
		Clients: 1, Scale: 2, Units: 7, UnitOps: AppendReads + 1,
		Unit: "12 reads cycling through the xmark_mix texts, then one append of a ≈14 KB fragment; every 4th append compacts",
	},
	{
		Name:    "cold_ingest_open",
		Why:     "in-process Compress+SaveFile, then requests that each evict and re-open a repository (3 files, pool of 2): ingest and LoadBinary do all the work, the query engine none",
		Clients: 1, Scale: 2, Units: 6, UnitOps: 1 + ColdOpensPerIngest,
		Unit: "one ingest of a scale-2 document and 3 pool-miss Q1 requests; a round runs its ingests first, then its requests",
	},
}

// Metric names one printed number.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	What   string
}

// EndToEnd are the metrics a user of the system sees. Every workload
// reports every one of them with --trace 0, because the driver asks for
// that; what the generic names mean on cold_ingest_open and append_mixed
// is said here and in README.md. Each is computed from at least 30
// operations of its kind, or is an exact property of the compressed
// corpus.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", "corpus generation + compress + save + daemon ready + warm pass; median of the run's five set-ups"},
	{"qps", "1/s", "higher", "completed operations per second of a round, median of the five rounds; on cold_ingest_open the operations are the in-process ingests alone, so qps x corpus MB is the ingest rate"},
	{"latency_p50_ms", "ms", "lower", "client-side latency of a read request, all samples of the run: median per request class, mean over the classes; on cold_ingest_open the read is a pool-miss request, so this is the open latency"},
	{"latency_p90_ms", "ms", "lower", "the same samples pooled, 90th percentile"},
	{"first_byte_p50_ms", "ms", "lower", "request sent to first body byte, median per class, mean over the classes"},
	{"cpu_ms_per_req", "ms", "lower", "user+sys CPU of the xquecd child per request it served in a round, median of the five rounds"},
	{"compression_factor", "ratio", "higher", "the paper's CF = 1 - compressed/original of the workload's corpus (final state on append_mixed)"},
	{"resident_bytes_per_doc_byte", "ratio", "lower", "Database.Footprint().Total() / XML bytes of the same corpus"},
}

// PerLayer are the single-layer metrics of a --trace 1 run, named
// module.metric. README.md maps each to the end-to-end metric it should
// move and the workload it should move it on.
var PerLayer = []Metric{
	{"server.http_overhead_us", "us", "lower", "socket p50 - in-process Execute+WriteXML p50 of the cheapest request"},
	{"server.plancache_hit_ratio", "ratio", "higher", "plan-cache hits / lookups of the replayed round (GET /metrics delta)"},
	{"server.pool_hit_ratio", "ratio", "higher", "repository-pool hits / lookups of the replayed round"},
	{"server.latency_p99_ms", "ms", "lower", "client-side p99 of the replayed round, all classes pooled (see server.latency_samples)"},
	{"server.latency_samples", "count", "higher", "samples behind server.latency_p99_ms"},
	{"server.rss_mb", "MB", "lower", "VmRSS of the xquecd child after the replayed round"},
	{"xquery.parse_us", "us", "lower", "xquec.ParseQuery, mean over the distinct requests of per-request medians"},
	{"vm.compile_us", "us", "lower", "Database.Prepare minus parse"},
	{"vm.program_len", "count", "lower", "mean compiled program length"},
	{"vm.first_item_us", "us", "lower", "Prepared.Execute to the first Results.Next"},
	{"vm.allocs_to_first", "count", "lower", "heap allocations from Execute to the first item, summed over the distinct requests"},
	{"vm.ns_per_item", "ns", "lower", "draining Results.Next, per item"},
	{"vm.allocs_per_item", "count", "lower", "heap allocations per drained item"},
	{"vm.alloc_bytes_per_item", "B", "lower", "heap bytes per drained item"},
	{"storage.decode_ops_per_req", "count", "lower", "xquecd_value_decodes_total delta / requests of the replayed round"},
	{"storage.serialize_mb_s", "MB/s", "higher", "Item.AppendXML over the drained items"},
	{"storage.ingest_mb_s", "MB/s", "higher", "XML bytes / xquec.Compress wall time, median of 3"},
	{"storage.parse_ms", "ms", "lower", "IngestStats: serial SAX pass"},
	{"storage.classify_ms", "ms", "lower", "IngestStats: container type inference"},
	{"storage.train_ms", "ms", "lower", "IngestStats: source-model training"},
	{"storage.encode_ms", "ms", "lower", "IngestStats: value encoding and container sorting"},
	{"storage.index_ms", "ms", "lower", "IngestStats: index and statistics pass"},
	{"storage.save_ms", "ms", "lower", "Database.SaveFile, median of 5"},
	{"storage.open_ms", "ms", "lower", "xquec.Open of the saved file, median of 5"},
	{"storage.load_mb_s", "MB/s", "higher", "repository file bytes / open time"},
	{"succinct.bits_per_node", "bit", "lower", "Database.StructureBitsPerNode"},
	{"succinct.parent_ns_per_node", "ns", "lower", "Store.ParentBulk over all nodes"},
	{"succinct.subtree_end_ns_per_node", "ns", "lower", "Store.SubtreeEndBulk over all nodes"},
	{"algebra.descendants_mnodes_s", "Mnodes/s", "higher", "algebra.Descendants of all items under /site, output nodes per second"},
	{"algebra.semijoin_mnodes_s", "Mnodes/s", "higher", "algebra.SemiJoinAncestor of items against their names, input nodes per second"},
	{"algebra.kway_merge_ns_per_item", "ns", "lower", "KWayHeap ReplaceMin merge of 4 ascending streams"},
	{"xmlparser.sax_mb_s", "MB/s", "higher", "xmlparser event pass over the corpus"},
	{"compress.alm_decode_mb_s", "MB/s", "higher", "Container.Decode over the largest ALM container, plain bytes per second"},
	{"compress.huffman_decode_mb_s", "MB/s", "higher", "same, largest Huffman container"},
	{"compress.hutucker_decode_mb_s", "MB/s", "higher", "same, largest Hu-Tucker container"},
	{"compress.numeric_decode_mb_s", "MB/s", "higher", "same, largest numeric container"},
	{"compress.alm_encode_mb_s", "MB/s", "higher", "Container.Encode over the same ALM container"},
	{"shard.scatter_tax_ratio", "ratio", "lower", "Q2 on a 4-shard set / Q2 on the single repository, in-process"},
	{"shard.fallback_tax_ratio", "ratio", "lower", "Q8 on the same, warm fused store"},
	{"shard.single_partition_tax_ratio", "ratio", "lower", "Q1, whose answer lies in one shard, on the same"},
	{"shard.fanout_p2_speedup", "ratio", "higher", "Q17 on the shard set at ShardFanout 1 / at ShardFanout 2"},
	{"segment.scatter_tax_ratio", "ratio", "lower", "Q2 on a 4-segment set / single repository"},
	{"segment.fallback_tax_ratio", "ratio", "lower", "Q8 on the same"},
	{"segment.append_ms", "ms", "lower", "Writer.Append+Commit of one fragment, median of 10"},
	{"segment.compact_p50_ms", "ms", "lower", "Writer.Compact after every second of those appends, median of 5"},
	{"segment.count_final", "count", "lower", "segments of the served repository after the replayed round"},
	{"xpar.scan_p2_speedup", "ratio", "higher", "Q14 at Parallelism 1 / at Parallelism 2, in-process"},
	{"costmodel.plan_ms", "ms", "lower", "xquec.PlanFromWorkload for the xmark_mix queries"},
	{"trace.overhead_ratio", "ratio", "lower", "traced in-process request time / untraced Execute+WriteXML"},
	{"trace.engine_share", "ratio", "higher", "first item + drain + serialize self time / socket time, over the distinct requests"},
}
