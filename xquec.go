// Package xquec is a Go implementation of XQueC ("Efficient Query
// Evaluation over Compressed XML Data", EDBT 2004): an XQuery processor
// and compressor that stores XML as individually compressed,
// individually accessible values grouped into per-path containers, and
// evaluates queries directly in the compressed domain whenever the
// chosen compression algorithms allow it.
//
// The three public entry points mirror the paper's architecture
// (Fig. 1): Compress is the loader/compressor, Database is the
// compressed repository, and Database.Execute is the query processor.
//
// Execute returns a pull-based Results cursor: items are computed — and
// their values decompressed — one Next at a time, so consumers that
// stop early, stream to a writer, or cancel a context never pay for
// results they do not read.
//
//	db, err := xquec.Compress(doc, xquec.Options{})
//	res, err := db.Execute(ctx, `FOR $p IN document("d")/site/people/person
//	                             WHERE $p/age >= 30 RETURN $p/name/text()`,
//		xquec.QueryOptions{})
//	defer res.Close()
//	n, err := res.WriteXML(os.Stdout) // or: item, ok, err := res.Next()
//
// Repositories are mutable through a Writer: Append stages documents,
// Commit ingests them as append segments sharing the repository's name
// dictionary, and Compact folds the segments back into one repository.
// Readers holding the previous handle keep their snapshot.
//
//	w, err := xquec.NewWriter(db, xquec.Options{})
//	err = w.Append(moreXML)
//	db2, err := w.Commit()    // db is untouched; db2 sees the append
//
// Supplying a query workload lets the cost model (§3 of the paper)
// choose how containers are partitioned into shared source models and
// which algorithm — order-preserving ALM, Huffman, Hu-Tucker, or a
// general-purpose blob codec — compresses each group:
//
//	var w xquec.Workload
//	w.IneqConst("/site/closed_auctions/closed_auction/price/#text")
//	db, err := xquec.Compress(doc, xquec.Options{Workload: &w})
package xquec

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"xquec/internal/costmodel"
	"xquec/internal/engine"
	"xquec/internal/partition"
	"xquec/internal/storage"
	"xquec/internal/workload"
	"xquec/internal/xquery"
)

// Workload is the query workload driving compression choices: the set
// of equality / inequality / prefix predicates over container paths.
type Workload = workload.Workload

// Predicate is one workload predicate.
type Predicate = workload.Predicate

// CompressionPlan pins the container partitioning and algorithms
// explicitly, bypassing the cost model.
type CompressionPlan = storage.CompressionPlan

// Options configures Compress.
type Options struct {
	// Workload, when non-nil, triggers the §3 cost-model search: the
	// textual containers referenced by the workload are partitioned
	// into source-model groups with algorithms chosen per group.
	Workload *Workload
	// WorkloadQueries derives the workload directly from the
	// application's queries (the paper's setting); merged with Workload
	// if both are set.
	WorkloadQueries []string
	// Plan overrides the cost model entirely.
	Plan *CompressionPlan
	// Shards, when 2 or more, cuts the document into min(Shards, root
	// element children) contiguous runs of its root's children and
	// builds them as a segment set, as a Writer appending the runs to the
	// first would: one repository per run, all sharing one name
	// dictionary, opened together as one logical Database whose queries
	// run on the runs' fused store and return results identical to a
	// single repository's. All runs share one plan, with a workload the
	// one searched over the whole document, which that parses once more.
	// 0 or 1 builds a single repository.
	Shards int
}

// Database is a compressed, queryable XML document — the paper's
// compressed repository plus its query processor.
//
// A Database handle is immutable, so it is safe for concurrent use on
// the read path: Execute, Prepare, Explain, Stats, Containers and
// Decompress may all run from any number of goroutines over one
// Database (each query gets its own evaluation state; the store,
// containers, summary and codecs are never written after Load/Open).
// Writes never mutate a handle either — a Writer's Commit/Compact
// builds a new Database value and readers of the old one keep their
// snapshot.
type Database struct {
	// store is the one store every query runs on: the repository, or
	// the fused store of set. set is non-nil for a segment set
	// (Options.Shards ≥ 2, a Writer's Commit, Open on a manifest): how
	// the corpus is persisted, as segment files sharing one name
	// dictionary.
	store *storage.Store
	set   *partition.Set
}

// setDB is the Database of a segment set.
func setDB(set *partition.Set) *Database { return &Database{store: set.Store(), set: set} }

// Compress parses and compresses an XML document into a Database. With
// Options.Shards ≥ 2 the document is cut into a segment set (see the
// field doc); otherwise it is a single repository. The compressor's
// fan-out runs on GOMAXPROCS workers; the repository is the same
// whatever their number.
func Compress(doc []byte, opts Options) (*Database, error) {
	if opts.Shards >= 2 {
		plan := opts.Plan
		w, err := opts.workload()
		if err == nil && w != nil {
			plan, err = PlanFromWorkload(doc, w, searchSeed)
		}
		if err != nil {
			return nil, err
		}
		set, err := partition.Build(doc, opts.Shards, plan)
		if err != nil {
			return nil, err
		}
		return setDB(set), nil
	}
	vals, err := storage.Parse(doc, nil)
	if err != nil {
		return nil, err
	}
	plan, err := opts.plan(vals, searchSeed)
	if err != nil {
		return nil, err
	}
	s, err := vals.Store(plan)
	if err != nil {
		return nil, err
	}
	return &Database{store: s}, nil
}

// searchSeed seeds the greedy search of Compress and Writer (it draws
// predicates at random): fixed, so their choices are reproducible.
const searchSeed = 20040314

// plan chooses the compression plan of a write's values under o (nil =
// per-type defaults): an explicit Plan wins, otherwise a workload runs
// the cost-model search, seeded with seed, over the textual lists of its
// paths.
func (o Options) plan(vals *storage.Values, seed int64) (*CompressionPlan, error) {
	w, err := o.workload()
	if err != nil || w == nil {
		return o.Plan, err
	}
	infos := costmodel.Infos(vals.Textual(w.Paths()))
	if len(infos) == 0 {
		return &CompressionPlan{}, nil
	}
	model, err := costmodel.NewModel(infos, w)
	if err != nil {
		return nil, err
	}
	cfg, _ := model.Search(seed)
	groups, algs := model.PlanGroups(cfg)
	return &CompressionPlan{Groups: groups, Algorithms: algs}, nil
}

// workload returns the workload of o — Workload and the one
// WorkloadQueries derive, merged — or nil when there is none to search
// with or Plan pins the plan.
func (o Options) workload() (*Workload, error) {
	w := o.Workload
	if len(o.WorkloadQueries) > 0 {
		extracted, err := WorkloadFromQueries(o.WorkloadQueries...)
		if err != nil {
			return nil, err
		}
		if w != nil {
			extracted.Predicates = append(extracted.Predicates, w.Predicates...)
		}
		w = extracted
	}
	if o.Plan != nil || w == nil || len(w.Predicates) == 0 {
		return nil, nil
	}
	return w, nil
}

// PlanFromWorkload runs the cost-model search (similarity matrix,
// E/I/D predicate matrices, greedy configuration moves) over the values
// Compress parses from doc and returns the resulting compression plan.
func PlanFromWorkload(doc []byte, w *Workload, seed int64) (*CompressionPlan, error) {
	vals, err := storage.Parse(doc, nil)
	if err != nil {
		return nil, err
	}
	return Options{Workload: w}.plan(vals, seed)
}

// WorkloadFromQueries derives a workload from XQuery texts by statically
// resolving every value comparison to its container paths — the paper's
// setting, where W simply is the application's query set.
func WorkloadFromQueries(queries ...string) (*Workload, error) {
	return workload.FromQueries(queries...)
}

// Open loads a Database previously saved with SaveFile — a single
// repository or a segment-set manifest (told apart by content, so a
// serving pool can open both through one call).
func Open(path string) (*Database, error) {
	manifest, err := isManifest(path)
	if err != nil {
		return nil, openErr(fmt.Errorf("xquec: open repository %s: %w", path, err))
	}
	if manifest {
		set, err := partition.Open(path)
		if err != nil {
			return nil, openErr(fmt.Errorf("xquec: open repository set %s: %w", path, err))
		}
		return setDB(set), nil
	}
	s, err := storage.OpenFile(path)
	if err != nil {
		return nil, openErr(fmt.Errorf("xquec: open repository %s: %w", path, err))
	}
	return &Database{store: s}, nil
}

// isManifest sniffs whether path is a set manifest by its content:
// manifests are JSON objects, repositories start with the XQCR magic. A
// JSON object of another format still counts, so the manifest parser's
// error names the format it found.
func isManifest(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	var b [1]byte
	_, err = f.Read(b[:])
	f.Close()
	return err == nil && b[0] == '{', err
}

// OpenBytes loads a Database from serialized repository bytes. A
// manifest only references its segment files, it does not contain them,
// so OpenBytes rejects manifest bytes with a typed ErrCorruptRepository
// explaining the mismatch instead of failing on the magic check.
//
// The Database does not retain data: the store keeps its record values
// as sub-slices of the buffer it loads from, so OpenBytes loads from a
// copy (Open reads the file into a buffer of its own and needs none).
func OpenBytes(data []byte) (*Database, error) {
	if partition.IsManifest(data) {
		return nil, tagErr(ErrCorruptRepository, fmt.Errorf(
			"xquec: load repository: data is a segment-set manifest, which references external segment files rather than containing them; open it from its path with Open"))
	}
	s, err := storage.LoadBinary(bytes.Clone(data))
	if err != nil {
		return nil, openErr(fmt.Errorf("xquec: load repository: %w", err))
	}
	return &Database{store: s}, nil
}

// Segmented reports whether the database is a segment set (cut by
// Options.Shards, opened from a segment-set manifest or produced by a
// Writer).
func (db *Database) Segmented() bool { return db.set != nil }

// Segments returns the segment count (1 for an unsegmented database).
func (db *Database) Segments() int {
	if db.Segmented() {
		return len(db.set.Segments.Segments)
	}
	return 1
}

// TopologyKey identifies the repository instance and its segment
// topology for cache keying: plan caches must include it so prepared
// statements never outlive a swap to a repository with a different
// store or layout. A Writer's Commit/Compact produces a Database with
// a fresh key (new set value, advanced generation), so caches keyed on
// it invalidate on swap.
func (db *Database) TopologyKey() string {
	if db.set != nil {
		return fmt.Sprintf("set=%p;%s", db.set, db.set.TopologyKey())
	}
	return fmt.Sprintf("store=%p", db.store)
}

// SaveFile persists the database: one repository file, or — for a
// segmented database — the manifest at path plus one repository file per
// segment next to it, named after the manifest's base name.
func (db *Database) SaveFile(path string) error {
	if db.set != nil {
		return db.set.Save(path)
	}
	return db.store.SaveFile(path)
}

// Bytes serializes the database. For a segmented database this is the
// fused single-repository serialization (segment sets are a multi-file
// layout; use SaveFile to persist one).
func (db *Database) Bytes() []byte { return db.store.AppendBinary(nil) }

// Decompress reconstructs the original XML document (modulo
// insignificant whitespace) from the compressed repository — for a
// segmented database, the corpus its segments concatenate to.
func (db *Database) Decompress() ([]byte, error) { return db.store.Serialize(nil, nil, 1) }

// QueryOptions configures one evaluation. Every field is ignored: a
// query runs on its caller's goroutine, serially, and its results are
// the same whatever a caller sets. The fields remain only for callers
// that still set them.
type QueryOptions struct {
	// Parallelism is ignored: nothing within a query runs on other
	// goroutines. Queries run concurrently with each other only, as
	// concurrent Execute calls.
	Parallelism int

	// ShardFanout is ignored: every query over a segment set runs on its
	// fused store, so nothing fans out.
	ShardFanout int
}

// run is the single evaluation entry point behind Execute: run the
// compiled program and prime its first item so errors that occur before
// any output — an expired deadline, an unbound variable, a failing
// aggregate — surface here rather than on the first Next. Each call
// gets its own evaluation state; the program's VM loop feeds the cursor
// directly.
func (p *Prepared) run(ctx context.Context) (*Results, error) {
	res, err := p.prog.Run(ctx)
	if err != nil {
		return nil, tagErr(ErrEval, err)
	}
	if err := res.Prime(); err != nil {
		return nil, tagErr(ErrEval, err)
	}
	return &Results{res: res}, nil
}

// Execute parses and evaluates an XQuery expression under ctx with
// per-call options — the single query entry point. Safe for
// concurrent use: the per-query state (join-index caches, cursor
// position) is private to the call. The returned Results is a pull
// cursor; consume it with Next/WriteXML and Close it.
//
// The evaluation loop and the result cursor both poll ctx, so a
// deadline or a client disconnect aborts a long evaluation — or a long
// result iteration — with ctx.Err(). The query is evaluated on the
// calling goroutine (and on the one draining Results); opts is ignored.
func (db *Database) Execute(ctx context.Context, q string, opts QueryOptions) (*Results, error) {
	prep, err := db.Prepare(q)
	if err != nil {
		return nil, err
	}
	return prep.run(ctx)
}

// Prepare parses and compiles a query once for repeated execution,
// skipping the parser and compiler on every subsequent run: the unit a
// serving plan cache stores. Compilation is eager here so the cache can
// account the compiled program's bytes at admission time, and so a
// query that does not compile fails here, tagged ErrEval. On a segment
// set the program compiles against the set's fused store. The prepared
// query is bound to this Database and is safe for concurrent Execute
// calls: the compiled program is never mutated and every execution gets
// fresh run state.
func (db *Database) Prepare(q string) (*Prepared, error) {
	expr, err := xquery.Parse(q)
	if err != nil {
		return nil, tagErr(ErrParse, err)
	}
	prog, err := engine.Compile(expr, db.store, q)
	if err != nil {
		return nil, tagErr(ErrEval, err)
	}
	return &Prepared{text: q, prog: prog}, nil
}

// Prepared is a query compiled against the store it runs on: the
// Database's repository or its set's fused store.
type Prepared struct {
	text string
	prog *engine.Program
}

// Text returns the original query text.
func (p *Prepared) Text() string { return p.text }

// ProgramLen returns the compiled program's instruction count.
func (p *Prepared) ProgramLen() int { return p.prog.Len() }

// CostBytes estimates the prepared statement's resident size for
// byte-based plan-cache accounting: the compiled program's bytes.
func (p *Prepared) CostBytes() int { return p.prog.SizeBytes() }

// Disassemble returns the listing of the compiled program that runs the
// query: its instructions, and the summary accesses, container accesses,
// joins and templates the compiler chose.
func (p *Prepared) Disassemble() string { return p.prog.Disassemble() }

// Execute evaluates the prepared query under ctx — the single
// prepared-statement entry point. See Database.Execute for the ctx
// semantics; opts is ignored.
func (p *Prepared) Execute(ctx context.Context, opts QueryOptions) (*Results, error) {
	return p.run(ctx)
}

// Explain returns the query's plan without running it: on a set, which
// store evaluates it, and then the listing of the program that runs
// (Prepared.Disassemble). A query that does not parse is an error tagged
// ErrParse, one that does not compile ErrEval.
func (db *Database) Explain(q string) (string, error) {
	p, err := db.Prepare(q)
	if err != nil {
		return "", err
	}
	var head string
	if set := db.set; set != nil {
		if parts := len(set.Segments.Segments); parts == 1 {
			head = "single segment; evaluate directly\n"
		} else {
			head = fmt.Sprintf("evaluate on the fused store of %d segments\n", parts)
		}
	}
	return head + p.Disassemble(), nil
}

// MustQuery is Execute for examples and tests; it panics on error.
func (db *Database) MustQuery(q string) *Results {
	r, err := db.Execute(context.Background(), q, QueryOptions{})
	if err != nil {
		panic(err)
	}
	return r
}

// CompressionFactor is the paper's CF metric: 1 − compressed/original
// for the serialized repository (the segment files when segmented).
func (db *Database) CompressionFactor() float64 {
	s := db.Stats()
	if s.OriginalBytes == 0 {
		return 0
	}
	return 1 - float64(s.CompressedBytes)/float64(s.OriginalBytes)
}

// Footprint is the in-memory component sizes of the store queries run
// on: a segment set holds no other.
func (db *Database) Footprint() storage.Footprint { return db.store.Footprint() }

// ResidentBytes is the database's total in-memory size — what the
// server exports per repository as the xquecd_repo_resident_bytes gauge.
func (db *Database) ResidentBytes() int { return db.Footprint().Total() }

// StructureBitsPerNode reports the density of the succinct structure
// encoding — paren bits and node marks, each with its rank/select
// directories — in bits per tree node (elements + attributes + text
// values).
func (db *Database) StructureBitsPerNode() float64 {
	bp, marks, n := db.store.StructureStats()
	if n == 0 {
		return 0
	}
	return float64(bp+marks) / float64(n)
}

// Stats summarizes the database. For a segment set, CompressedBytes is
// the bytes of its segment files and the rest describes its fused store.
func (db *Database) Stats() Stats {
	st := db.store
	f := st.Footprint()
	s := Stats{
		OriginalBytes:   st.OriginalSize,
		Nodes:           st.NumNodes(),
		Containers:      len(st.Containers),
		SourceModels:    len(st.Models),
		SummaryNodes:    len(st.Sum.Nodes()),
		InMemoryTotal:   f.Total(),
		InMemoryMinimal: f.Minimal(),
	}
	if db.set != nil {
		s.CompressedBytes = db.set.CompressedSize()
	} else {
		s.CompressedBytes = len(st.AppendBinary(nil))
	}
	return s
}

// IngestStats reports the compressor pipeline's phase timings for the
// store queries run on. Zero for databases opened from disk and for a
// fused store — the timings describe one ingest, not the repository
// itself.
func (db *Database) IngestStats() storage.BuildStats { return db.store.Build }

// Stats is a database summary.
type Stats struct {
	OriginalBytes   int
	CompressedBytes int
	Nodes           int
	Containers      int
	SourceModels    int
	SummaryNodes    int
	InMemoryTotal   int // including access-support structures
	InMemoryMinimal int // without them (§2.2 ablation)
}

func (s Stats) String() string {
	return fmt.Sprintf("original=%dB compressed=%dB (CF %.1f%%) nodes=%d containers=%d models=%d summary=%d",
		s.OriginalBytes, s.CompressedBytes,
		100*(1-float64(s.CompressedBytes)/float64(s.OriginalBytes)),
		s.Nodes, s.Containers, s.SourceModels, s.SummaryNodes)
}

// ContainerInfo describes one value container.
type ContainerInfo struct {
	Path      string
	Kind      string
	Algorithm string
	Group     string
	Records   int
	Bytes     int // compressed payload
}

// Containers lists the value containers of the store queries run on (a
// segment set's fused store).
func (db *Database) Containers() []ContainerInfo {
	var out []ContainerInfo
	for _, c := range db.store.Containers {
		out = append(out, ContainerInfo{
			Path:      c.Path,
			Kind:      c.Kind.String(),
			Algorithm: c.Codec().Name(),
			Group:     c.Group,
			Records:   c.Len(),
			Bytes:     c.CompressedBytes(),
		})
	}
	return out
}

// ParseQuery checks a query for syntax errors without running it.
func ParseQuery(q string) error {
	_, err := xquery.Parse(q)
	return tagErr(ErrParse, err)
}
