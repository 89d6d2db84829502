package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"xquec"
	"xquec/bench"
	"xquec/internal/xmarkq"
)

// traceReps is how often the traced run repeats each distinct request,
// in-process and over the socket; a span's time is the median of them.
const traceReps = 5

// span is one timed call, recorded around a public function from outside
// the program. Spans of one request share Req; Parent names the span
// that caused it. Times are nanoseconds since the trace began.
type span struct {
	Req    int    `json:"req"`
	Label  string `json:"label"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(req int, label, name, parent string) func() {
	i := len(t.spans)
	t.spans = append(t.spans, span{Req: req, Label: label, Name: name, Parent: parent, Start: int64(time.Since(t.origin))})
	return func() { t.spans[i].End = int64(time.Since(t.origin)) }
}

// The spans of one in-process request, children of "request", and the
// socket round trip of the identical request.
var spanNames = []string{"parse", "prepare", "execute", "drain", "serialize", "request", "socket"}

// row is one distinct request's medians, in microseconds.
type row struct {
	Label    string             `json:"label"`
	Repo     string             `json:"repo"`
	Items    int                `json:"items"`
	Us       map[string]float64 `json:"us"`          // span name -> median duration
	Self     float64            `json:"self_us"`     // request minus its children
	Untraced float64            `json:"untraced_us"` // Execute+WriteXML with no spans
}

// engineUs is the time inside the evaluator and the store: everything a
// cached plan still costs in-process.
func (r row) engineUs() float64 { return r.Us["execute"] + r.Us["drain"] + r.Us["serialize"] }

// httpUs is what the socket adds to a request whose plan is cached.
func (r row) httpUs() float64 { return r.Us["socket"] - r.engineUs() }

// traceFile is what a traced run leaves in the trace directory.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Rows     []row              `json:"rows"`
	Layers   map[string]float64 `json:"layers"`
	Spans    []span             `json:"spans"`
}

// allocs is the heap allocation count and bytes so far.
func allocs() (uint64, uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// counts is what one untimed, allocation-counted replay of a request saw.
type counts struct {
	items, nextCalls      int
	bytes                 int
	allocsToFirst         uint64
	drainAllocs, drainMem uint64
	programLen            int
}

var opts = xquec.QueryOptions{Parallelism: 1}

// tracedRequest replays r in-process against db with a span around each
// public call. With count set it reads the allocation counters between
// the calls instead, which is too slow to time.
func tracedRequest(t *tracer, db *xquec.Database, id int, r *request, count *counts) error {
	begin := func(name, parent string) func() {
		if count != nil {
			return func() {}
		}
		return t.begin(id, r.label, name, parent)
	}
	ctx := context.Background()
	endRequest := begin("request", "")
	end := begin("parse", "request")
	err := xquec.ParseQuery(r.text)
	end()
	if err != nil {
		return err
	}
	end = begin("prepare", "request")
	prep, err := db.Prepare(r.text)
	end()
	if err != nil {
		return err
	}

	items := make([]xquec.Item, 0, r.want.count)
	var a0, b0, a1, b1 uint64
	if count != nil {
		count.programLen = prep.ProgramLen()
		a0, _ = allocs()
	}
	end = begin("execute", "request")
	res, err := prep.Execute(ctx, opts)
	if err != nil {
		return err
	}
	defer res.Close()
	it, ok, err := res.Next()
	end()
	if count != nil {
		a1, b0 = allocs()
		count.allocsToFirst = a1 - a0
	}
	calls := 0
	end = begin("drain", "request")
	for ok && err == nil {
		items = append(items, it)
		it, ok, err = res.Next()
		calls++
	}
	end()
	if err != nil {
		return err
	}
	if count != nil {
		a0, b1 = allocs()
		count.drainAllocs, count.drainMem = a0-a1, b1-b0
		count.items, count.nextCalls = len(items), max(1, calls)
	}
	var buf []byte
	total := 0
	end = begin("serialize", "request")
	for _, it := range items {
		if buf, err = it.AppendXML(buf[:0]); err != nil {
			break
		}
		total += len(buf) + 1
	}
	end()
	endRequest()
	if count != nil {
		count.bytes = total
	}
	return err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianDur(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// timeIt is the median wall time of traceReps calls of f, after one
// call that warms lazily built state.
func timeIt(f func() error) (time.Duration, error) {
	if err := f(); err != nil {
		return 0, err
	}
	d := make([]time.Duration, traceReps)
	for i := range d {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d[i] = time.Since(start)
	}
	return medianDur(d), nil
}

// evaluate runs q on db to exhaustion, discarding the output.
func evaluate(db *xquec.Database, q string, o xquec.QueryOptions) error {
	res, err := db.Execute(context.Background(), q, o)
	if err != nil {
		return err
	}
	defer res.Close()
	_, err = res.WriteXML(io.Discard)
	return err
}

// traceRun is a --trace 1 run: one set-up, the distinct requests replayed
// over the socket and in-process with spans, one round of client 0's
// script over the socket for the daemon's counters, and the kernels of
// the layers below. It prints the per-layer metrics.
func traceRun(cfg config, p *plan) (*result, error) {
	s, _, failures, err := setUp(cfg, p)
	if err != nil {
		return nil, err
	}
	defer s.close()
	m := map[string]float64{}
	attempted := len(p.warm)

	// Allocation counts repeat only if no collection empties a sync.Pool
	// half-way and the goroutine stays on one P's pool: two collections
	// to start from empty pools, none while counting, and one P, as
	// testing.AllocsPerRun does. (What is left is the program's own: hash
	// joins allocate map overflow buckets by Go's per-process hash seed,
	// a handful in 700 000.)
	t := &tracer{origin: time.Now()}
	s.d.client.CloseIdleConnections()
	runtime.GC()
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	ps := runtime.GOMAXPROCS(1)
	counted := make([]counts, len(p.distinct))
	for id, r := range p.distinct {
		if err := tracedRequest(t, p.repos[r.repo], id, r, &counted[id]); err != nil {
			return nil, fmt.Errorf("trace %s: %w", r.label, err)
		}
	}
	runtime.GOMAXPROCS(ps)
	debug.SetGCPercent(gc)

	// The distinct requests, rep by rep, so that on cold_ingest_open each
	// one finds its repository evicted. A rep of a request is the socket
	// round trip, the traced in-process replay and the untraced one, back
	// to back: the host's speed wanders from second to second, and the
	// budget subtracts one of these from another.
	var buf bytes.Buffer
	untraced := make([][]time.Duration, len(p.distinct))
	for rep := 0; rep < traceReps; rep++ {
		for id, r := range p.distinct {
			end := t.begin(id, r.label, "socket", "")
			got := s.d.do(r, &buf)
			end()
			attempted++
			if !got.ok {
				failures = append(failures, "trace "+r.label+": "+got.why)
			}
			db := p.repos[r.repo]
			if err := tracedRequest(t, db, id, r, nil); err != nil {
				return nil, fmt.Errorf("trace %s: %w", r.label, err)
			}
			start := time.Now()
			if err := evaluate(db, r.text, opts); err != nil {
				return nil, err
			}
			untraced[id] = append(untraced[id], time.Since(start))
		}
	}

	rows := make([]row, len(p.distinct))
	var sum counts
	var untracedTotal, tracedTotal, parse, compile, first float64
	for id, r := range p.distinct {
		c := counted[id]
		rows[id] = row{Label: r.label, Repo: r.repo, Items: c.items, Us: map[string]float64{}, Untraced: us(medianDur(untraced[id]))}
		sum.items += c.items
		sum.nextCalls += c.nextCalls
		sum.bytes += c.bytes
		sum.allocsToFirst += c.allocsToFirst
		sum.drainAllocs += c.drainAllocs
		sum.drainMem += c.drainMem
		sum.programLen += c.programLen
	}
	type key struct {
		req  int
		name string
	}
	byName := map[key][]time.Duration{}
	for _, sp := range t.spans {
		k := key{sp.Req, sp.Name}
		byName[k] = append(byName[k], time.Duration(sp.End-sp.Start))
	}
	var drainUs, serializeUs, engine, socket float64
	cheapest := 0
	for id := range rows {
		r := &rows[id]
		for _, name := range spanNames {
			r.Us[name] = us(medianDur(byName[key{id, name}]))
		}
		r.Self = r.Us["request"] - r.Us["parse"] - r.Us["prepare"] - r.engineUs()
		parse += r.Us["parse"]
		compile += r.Us["prepare"] - r.Us["parse"]
		first += r.Us["execute"]
		drainUs += r.Us["drain"]
		serializeUs += r.Us["serialize"]
		engine += r.engineUs()
		socket += r.Us["socket"]
		tracedTotal += r.Us["request"] - r.Us["parse"]
		untracedTotal += r.Untraced
		if r.Us["socket"] < rows[cheapest].Us["socket"] {
			cheapest = id
		}
	}
	n := float64(len(rows))
	m["xquery.parse_us"] = parse / n
	m["vm.compile_us"] = compile / n
	m["vm.program_len"] = float64(sum.programLen) / n
	m["vm.first_item_us"] = first / n
	m["vm.allocs_to_first"] = float64(sum.allocsToFirst)
	m["vm.ns_per_item"] = drainUs * 1e3 / float64(sum.nextCalls)
	m["vm.allocs_per_item"] = float64(sum.drainAllocs) / float64(sum.nextCalls)
	m["vm.alloc_bytes_per_item"] = float64(sum.drainMem) / float64(sum.nextCalls)
	m["storage.serialize_mb_s"] = float64(sum.bytes) / serializeUs
	m["trace.overhead_ratio"] = tracedTotal / untracedTotal
	m["trace.engine_share"] = engine / socket
	m["server.http_overhead_us"] = rows[cheapest].Us["socket"] - rows[cheapest].Untraced

	// One round of client 0's script, alone, so the daemon's counters
	// are exact.
	before, err := s.d.counters()
	if err != nil {
		return nil, err
	}
	r := replay(s.d, p.script[:1])
	after, err := s.d.counters()
	if err != nil {
		return nil, err
	}
	attempted += r.ops
	failures = append(failures, r.failures...)
	if p.gate != nil {
		failures = append(failures, p.gate(s.d)...)
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	served := float64(r.served)
	m["server.plancache_hit_ratio"] = delta("xquecd_plan_cache_hits_total") / served
	m["server.pool_hit_ratio"] = delta("xquecd_repo_cache_hits_total") / served
	all := pooled(byLabel([]round{r}, latency))
	m["server.latency_p99_ms"] = percentile(all, 0.99)
	m["server.latency_samples"] = float64(len(all))
	m["server.rss_mb"] = s.d.rssMB()
	m["storage.decode_ops_per_req"] = delta("xquecd_value_decodes_total") / served
	m["segment.count_final"] = max(1, after["xquecd_repo_segments"])

	if err := corpusProbes(p, s.dir, m); err != nil {
		return nil, err
	}
	corpus := filepath.Join(s.dir, "corpus.xml")
	if err := os.WriteFile(corpus, p.docs[0], 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(cfg.binDir, "xqueclayers"), corpus)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("xqueclayers: %w", err)
	}
	var deep map[string]float64
	if err := json.Unmarshal(out, &deep); err != nil {
		return nil, fmt.Errorf("xqueclayers: %w", err)
	}
	for k, v := range deep {
		m[k] = v
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tf, err := json.MarshalIndent(traceFile{p.w.Name, cfg.seed, rows, m, t.spans}, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, p.w.Name+".trace.json"), tf, 0o644); err != nil {
		return nil, err
	}

	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "xquecload: failed:", f)
	}
	res := &result{Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures), Metrics: map[string]value{}}
	for _, pm := range bench.PerLayer {
		v, ok := m[pm.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", pm.Name)
		}
		res.Metrics[pm.Name] = value{v, pm.Unit}
	}
	return res, nil
}

// corpusProbes times the layers that are reachable through the public
// API on the workload's own document: ingest and its phases, save and
// open, the partition taxes, the write path and the cost model.
func corpusProbes(p *plan, dir string, m map[string]float64) error {
	doc := p.docs[0]
	mb := float64(len(doc)) / 1e6
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	var db *xquec.Database
	ingest := make([]time.Duration, 3)
	for i := range ingest {
		start := time.Now()
		var err error
		if db, err = xquec.Compress(doc, xquec.Options{}); err != nil {
			return err
		}
		ingest[i] = time.Since(start)
	}
	m["storage.ingest_mb_s"] = mb / medianDur(ingest).Seconds()
	st := db.IngestStats()
	m["storage.parse_ms"], m["storage.classify_ms"], m["storage.train_ms"] = ms(st.Parse), ms(st.Classify), ms(st.Train)
	m["storage.encode_ms"], m["storage.index_ms"] = ms(st.Encode), ms(st.Index)
	m["succinct.bits_per_node"] = db.StructureBitsPerNode()

	file := filepath.Join(dir, "probe.xqc")
	save, err := timeIt(func() error { return db.SaveFile(file) })
	if err != nil {
		return err
	}
	open, err := timeIt(func() error { _, err := xquec.Open(file); return err })
	if err != nil {
		return err
	}
	fi, err := os.Stat(file)
	if err != nil {
		return err
	}
	m["storage.save_ms"], m["storage.open_ms"] = ms(save), ms(open)
	m["storage.load_mb_s"] = float64(fi.Size()) / 1e6 / open.Seconds()

	// The same query on one repository, on 4 shards and on 4 segments.
	shards, err := xquec.Compress(doc, xquec.Options{Shards: bench.PartitionCount})
	if err != nil {
		return err
	}
	parts, err := splitSite(doc)
	if err != nil {
		return err
	}
	segs, err := segmentSet(parts, "")
	if err != nil {
		return err
	}
	// ratio times q on a and on b turn by turn, so that both sides see
	// the same seconds of the host.
	ratio := func(a, b *xquec.Database, q string, oa, ob xquec.QueryOptions) (float64, error) {
		var ta, tb []time.Duration
		for rep := 0; rep <= traceReps; rep++ {
			start := time.Now()
			if err := evaluate(a, q, oa); err != nil {
				return 0, err
			}
			mid := time.Now()
			if err := evaluate(b, q, ob); err != nil {
				return 0, err
			}
			if rep > 0 { // the first rep warms lazily built state
				ta, tb = append(ta, mid.Sub(start)), append(tb, time.Since(mid))
			}
		}
		return float64(medianDur(ta)) / float64(medianDur(tb)), nil
	}
	for _, probe := range []struct {
		name   string
		a, b   *xquec.Database
		q      string
		oa, ob xquec.QueryOptions
	}{
		{"shard.scatter_tax_ratio", shards, db, xmarkq.Q2, opts, opts},
		{"shard.fallback_tax_ratio", shards, db, xmarkq.Q8, opts, opts},
		{"shard.single_partition_tax_ratio", shards, db, xmarkq.Q1, opts, opts},
		{"shard.fanout_p2_speedup", shards, shards, xmarkq.Q17, xquec.QueryOptions{Parallelism: 1, ShardFanout: 1}, xquec.QueryOptions{Parallelism: 1, ShardFanout: 2}},
		{"segment.scatter_tax_ratio", segs, db, xmarkq.Q2, opts, opts},
		{"segment.fallback_tax_ratio", segs, db, xmarkq.Q8, opts, opts},
		{"xpar.scan_p2_speedup", db, db, xmarkq.Q14, opts, xquec.QueryOptions{Parallelism: 2}},
	} {
		if m[probe.name], err = ratio(probe.a, probe.b, probe.q, probe.oa, probe.ob); err != nil {
			return fmt.Errorf("%s: %w", probe.name, err)
		}
	}

	// The write path: traceReps cycles of two appends and a compaction.
	w, err := xquec.NewWriter(db, xquec.Options{})
	if err != nil {
		return err
	}
	var appends, compactions []time.Duration
	for i := 0; i < 2*traceReps; i++ {
		frag := xmark(bench.AppendFragScale, int64(i))
		start := time.Now()
		if err := w.Append(frag); err != nil {
			return err
		}
		if _, err := w.Commit(); err != nil {
			return err
		}
		appends = append(appends, time.Since(start))
		if i%2 == 1 {
			start = time.Now()
			if _, err := w.Compact(context.Background()); err != nil {
				return err
			}
			compactions = append(compactions, time.Since(start))
		}
	}
	m["segment.append_ms"], m["segment.compact_p50_ms"] = ms(medianDur(appends)), ms(medianDur(compactions))

	var texts []string
	for _, q := range xmarkq.Queries() {
		texts = append(texts, q.Text)
	}
	wl, err := xquec.WorkloadFromQueries(texts...)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := xquec.PlanFromWorkload(doc, wl, 1); err != nil {
		return err
	}
	m["costmodel.plan_ms"] = ms(time.Since(start))
	return nil
}
