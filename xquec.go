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
	"strings"
	"sync"
	"time"

	"xquec/internal/costmodel"
	"xquec/internal/engine"
	"xquec/internal/partition"
	"xquec/internal/storage"
	"xquec/internal/vm"
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
	// SearchSeed seeds the greedy search (it draws predicates at
	// random); 0 means a fixed default, keeping runs reproducible.
	SearchSeed int64
	// Plan overrides the cost model entirely.
	Plan *CompressionPlan
	// Parallelism is the worker count for the compressor's fan-out phase
	// (codec training, value encoding, container sorting). 0 means
	// GOMAXPROCS, 1 forces the serial path; any setting produces a
	// byte-identical repository.
	Parallelism int
	// Shards, when 2 or more, targets the scatter-gather serving tier:
	// the document splits into that many shard repositories at a subtree
	// boundary (round-robin over the partition-level subtrees), all
	// sharing one name dictionary, opened together as one logical
	// Database. Queries over it behave exactly like queries over a
	// single repository — scatterable ones fan out across the shards,
	// the rest run on a fused view — and return identical results.
	// Workload-driven compression choices apply per shard. 0 or 1 builds
	// a single repository.
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
	// Exactly one of store and set is non-nil. set holds a partitioned
	// corpus — a shard set (Options.Shards ≥ 2 / Open on a shard-set
	// manifest) or a segment set (a Writer's Commit / Open on a
	// segment-set manifest): several repositories sharing one name
	// dictionary, over which scatterable queries evaluate per part and
	// merge in document order while everything else runs on the lazily
	// fused single store (db.fused).
	store *storage.Store
	set   *partition.Set
}

// Compress parses and compresses an XML document into a Database. With
// Options.Shards ≥ 2 the repository is built sharded (see the field
// doc); otherwise it is a single repository.
func Compress(doc []byte, opts Options) (*Database, error) {
	plan, err := resolvePlan(doc, opts)
	if err != nil {
		return nil, err
	}
	load := storage.LoadOptions{Plan: plan, Parallelism: opts.Parallelism}
	if opts.Shards >= 2 {
		set, err := partition.Build(doc, opts.Shards, load)
		if err != nil {
			return nil, err
		}
		return &Database{set: set}, nil
	}
	s, err := storage.Load(doc, load)
	if err != nil {
		return nil, err
	}
	return &Database{store: s}, nil
}

// resolvePlan turns Options into a compression plan (nil = per-type
// defaults): explicit Plan wins, otherwise the workload-driven
// cost-model search runs.
func resolvePlan(doc []byte, opts Options) (*CompressionPlan, error) {
	plan := opts.Plan
	w := opts.Workload
	if len(opts.WorkloadQueries) > 0 {
		extracted, err := WorkloadFromQueries(opts.WorkloadQueries...)
		if err != nil {
			return nil, err
		}
		if w != nil {
			extracted.Predicates = append(extracted.Predicates, w.Predicates...)
		}
		w = extracted
	}
	if plan == nil && w != nil && len(w.Predicates) > 0 {
		p, err := PlanFromWorkload(doc, w, opts.SearchSeed)
		if err != nil {
			return nil, err
		}
		plan = p
	}
	return plan, nil
}

// PlanFromWorkload runs the cost-model search (similarity matrix,
// E/I/D predicate matrices, greedy configuration moves) and returns the
// resulting compression plan.
func PlanFromWorkload(doc []byte, w *Workload, seed int64) (*CompressionPlan, error) {
	if seed == 0 {
		seed = 20040314 // fixed default: reproducible choices
	}
	infos, err := costmodel.CollectContainers(doc)
	if err != nil {
		return nil, err
	}
	infos = costmodel.Restrict(infos, w.Paths())
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

// WorkloadFromQueries derives a workload from XQuery texts by statically
// resolving every value comparison to its container paths — the paper's
// setting, where W simply is the application's query set.
func WorkloadFromQueries(queries ...string) (*Workload, error) {
	return workload.FromQueries(queries...)
}

// Open loads a Database previously saved with SaveFile — a single
// repository, a shard-set manifest, or a segment-set manifest (all
// detected by content, so a serving pool can open every kind through
// one call).
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
		return &Database{set: set}, nil
	}
	s, err := storage.OpenFile(path)
	if err != nil {
		return nil, openErr(fmt.Errorf("xquec: open repository %s: %w", path, err))
	}
	return &Database{store: s}, nil
}

// isManifest sniffs whether path is a set manifest: by extension first,
// then by content (manifests are JSON objects, repositories start with
// the XQCR magic). A JSON object with an unknown format still counts,
// so the manifest parser's error names the expected format.
func isManifest(path string) (bool, error) {
	if strings.HasSuffix(path, partition.ShardManifestExt) || strings.HasSuffix(path, partition.SegmentManifestExt) {
		return true, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	var b [1]byte
	_, err = f.Read(b[:])
	f.Close()
	return err == nil && b[0] == '{', err
}

// OpenBytes loads a Database from serialized repository bytes. Manifest
// bytes are detected the same way Open detects manifest files — but a
// manifest only references its shard/segment files, it does not contain
// them, so OpenBytes rejects one with a typed ErrCorruptRepository
// explaining the mismatch instead of failing on the magic check.
//
// The Database does not retain data: the store keeps its record values
// as sub-slices of the buffer it loads from, so OpenBytes loads from a
// copy (Open reads the file into a buffer of its own and needs none).
func OpenBytes(data []byte) (*Database, error) {
	if noun := partition.SniffManifest(data); noun != "" {
		return nil, tagErr(ErrCorruptRepository, fmt.Errorf(
			"xquec: load repository: data is a %s-set manifest, which references external %s files rather than containing them; open it from its path with Open", noun, noun))
	}
	s, err := storage.LoadBinary(bytes.Clone(data))
	if err != nil {
		return nil, openErr(fmt.Errorf("xquec: load repository: %w", err))
	}
	return &Database{store: s}, nil
}

// Sharded reports whether the database is a shard set.
func (db *Database) Sharded() bool { return db.set != nil && db.set.Layout.Interleaved }

// Shards returns the shard count (1 for a single repository).
func (db *Database) Shards() int {
	if db.Sharded() {
		return len(db.set.Stores)
	}
	return 1
}

// Segmented reports whether the database is a segment set (opened from
// a segment-set manifest or produced by a Writer).
func (db *Database) Segmented() bool { return db.set != nil && !db.set.Layout.Interleaved }

// Segments returns the segment count (1 for an unsegmented database).
func (db *Database) Segments() int {
	if db.Segmented() {
		return len(db.set.Stores)
	}
	return 1
}

// TopologyKey identifies the repository instance and its shard/segment
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

// fused returns the single-store view: the store itself, or the
// shard/segment set's lazily reconstructed fusion.
func (db *Database) fused() (*storage.Store, error) {
	if db.set != nil {
		s, err := db.set.Fused()
		return s, tagErr(ErrCorruptRepository, err)
	}
	return db.store, nil
}

// SaveFile persists the database: one repository file, or — for a
// sharded or segmented database — the manifest at path plus one
// repository file per shard/segment next to it.
func (db *Database) SaveFile(path string) error {
	if db.set != nil {
		return db.set.Save(path)
	}
	return db.store.SaveFile(path)
}

// Bytes serializes the database. For a sharded database this is the
// fused single-repository serialization (shard sets are a multi-file
// layout; use SaveFile to persist one); nil if fusion fails.
func (db *Database) Bytes() []byte {
	s, err := db.fused()
	if err != nil {
		return nil
	}
	return s.AppendBinary(nil)
}

// Decompress reconstructs the original XML document (modulo
// insignificant whitespace) from the compressed repository — for a
// sharded database, by re-interleaving the partitioned subtrees in
// global document order.
func (db *Database) Decompress() ([]byte, error) {
	if db.set != nil {
		return db.set.FuseXML()
	}
	return db.store.Serialize(nil, 1)
}

// QueryOptions configures one evaluation.
type QueryOptions struct {
	// Parallelism is the intra-query worker budget: partitioned decoding
	// scans, structural joins and container fan-outs split their work
	// across up to this many workers. 0 means GOMAXPROCS, 1 forces the
	// serial path (mirroring Options.Parallelism on the compressor).
	// Results are byte-identical at every setting, and partitioning only
	// engages above per-operator work floors, so small queries never pay
	// fan-out overhead.
	Parallelism int

	// PartialResults, on a sharded database, keeps a scattered query
	// alive when individual shards fail: the failed shard's items are
	// dropped, the rest merge normally, and Results.Partial reports
	// true. The default (false) is fail-fast — any shard failure fails
	// the query. Context expiry always fails the query under either
	// policy. Ignored for single-repository databases and for queries
	// that fall back to the fused store.
	PartialResults bool
	// HedgeAfter, on a sharded database, re-dispatches a shard whose
	// stream has produced nothing for this long (straggler hedging);
	// the first evaluation to deliver wins and the other is cancelled.
	// Results are identical with or without hedging. 0 disables.
	HedgeAfter time.Duration
	// ShardFanout bounds how many shards evaluate concurrently on a
	// sharded database. 0 means all shards at once.
	ShardFanout int
}

// EvalEngine reports which evaluator queries run on: "vm" (the
// default — plans compile to bytecode, see internal/vm) or "tree" (the
// tree-walking oracle, selected with XQUEC_EVAL=tree). The setting is
// read per evaluation, so tests can switch engines between calls.
func EvalEngine() string {
	if vm.Enabled() {
		return "vm"
	}
	return "tree"
}

// run is the single evaluation entry point behind Execute: pick the
// evaluator, build the streaming cursor, and prime its first item so
// errors that occur before any output — an expired deadline, an unbound
// variable, a failing aggregate — surface here rather than on the first
// Next. Each call gets its own evaluation state.
//
// By default the compiled program's VM loop feeds the cursor directly;
// XQUEC_EVAL=tree (or a query shape the compiler refused) falls back
// to a fresh tree-walking engine over the same store.
//
// On a partitioned database the set decides the path: provably
// decomposable queries evaluate per part (each on this statement's
// program for that part) and merge in global document order; the rest —
// and every query over a single-part set — run on one store, the fused
// view or the part itself. All paths return byte-identical results to
// a single-repository database over the same corpus.
func (p *Prepared) run(ctx context.Context, opts QueryOptions) (*Results, error) {
	db := p.db
	st := db.store
	if set := db.set; set != nil {
		if p.scatter {
			cur, err := set.Eval(ctx, partition.Request{
				Query:       p.text,
				Parallelism: opts.Parallelism,
				Expr:        p.expr,
				ProgramFor:  p.program,
			}, partition.Options{
				Partial:    opts.PartialResults,
				HedgeAfter: opts.HedgeAfter,
				Fanout:     opts.ShardFanout,
			})
			if err != nil {
				return nil, tagErr(ErrEval, err)
			}
			if err := cur.Prime(); err != nil {
				cur.Close()
				return nil, tagErr(ErrEval, err)
			}
			return &Results{cur: cur}, nil
		}
		var err error
		if st, err = set.Fallback(); err != nil {
			return nil, tagErr(ErrCorruptRepository, err)
		}
	}
	if vm.Enabled() {
		if prog := p.program(st); prog != nil {
			res, err := prog.Run(vm.RunOptions{Ctx: ctx, Parallelism: opts.Parallelism})
			if err != nil {
				return nil, tagErr(ErrEval, err)
			}
			if err := res.Prime(); err != nil {
				return nil, tagErr(ErrEval, err)
			}
			return &Results{res: res}, nil
		}
	}
	res, err := engine.New(st).WithContext(ctx).WithParallelism(opts.Parallelism).EvalStream(p.expr)
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
// result iteration — with ctx.Err(). Queries at different Parallelism
// settings return identical results; a zero QueryOptions is the
// default evaluation.
func (db *Database) Execute(ctx context.Context, q string, opts QueryOptions) (*Results, error) {
	prep, err := db.Prepare(q)
	if err != nil {
		return nil, err
	}
	return prep.run(ctx, opts)
}

// Prepare parses — and, on the VM engine, compiles — a query once for
// repeated execution, skipping the parser and compiler on every
// subsequent run: the unit a serving plan cache stores. Compilation is
// eager here so the cache can account the compiled program's bytes at
// admission time. The prepared query is bound to this Database and is
// safe for concurrent Execute calls: the parsed form and the compiled
// program are never mutated and every execution gets fresh run state.
func (db *Database) Prepare(q string) (*Prepared, error) {
	expr, err := xquery.Parse(q)
	if err != nil {
		return nil, tagErr(ErrParse, err)
	}
	p := &Prepared{db: db, expr: expr, text: q}
	p.scatter = db.set != nil && db.set.Decide(expr).Scatter
	if vm.Enabled() {
		// A scattered query compiles one program per part, here and
		// only here; anything else compiles against the plan store.
		if p.scatter {
			for _, st := range db.set.Stores {
				p.program(st)
			}
		} else {
			p.program(p.planStore())
		}
	}
	return p, nil
}

// Prepared is a parsed query bound to a Database, plus its lazily
// compiled per-store bytecode programs.
type Prepared struct {
	db   *Database
	expr xquery.Expr
	text string
	// scatter is the set's dispatch decision for this query — a pure
	// function of the parsed form and the (immutable) set, so it is
	// taken once, not per execution. Always false for a plain database.
	scatter bool

	mu    sync.Mutex
	progs map[*storage.Store]*vm.Program // nil entry: compile declined, use tree
}

// planStore is the store whose compiled program represents this query
// for reporting: the store itself, or part 0 of a set (the parts share
// one summary shape).
func (p *Prepared) planStore() *storage.Store {
	if p.db.set != nil {
		return p.db.set.Stores[0]
	}
	return p.db.store
}

// program returns the compiled program for st, compiling on first use.
// A failed compilation is cached as nil, pinning the query to the
// tree-walking fallback.
func (p *Prepared) program(st *storage.Store) *vm.Program {
	p.mu.Lock()
	defer p.mu.Unlock()
	if prog, ok := p.progs[st]; ok {
		return prog
	}
	prog, err := vm.Compile(p.expr, st, p.text)
	if err != nil {
		prog = nil
	}
	if p.progs == nil {
		p.progs = map[*storage.Store]*vm.Program{}
	}
	p.progs[st] = prog
	return prog
}

// Text returns the original query text.
func (p *Prepared) Text() string { return p.text }

// EngineLabel reports how run will evaluate this statement: "vm" when
// a compiled program exists and the VM is enabled, else "tree".
func (p *Prepared) EngineLabel() string {
	if vm.Enabled() && p.program(p.planStore()) != nil {
		return "vm"
	}
	return "tree"
}

// ProgramLen returns the compiled program's instruction count (0 when
// the query runs on the tree walker).
func (p *Prepared) ProgramLen() int {
	if prog := p.program(p.planStore()); prog != nil {
		return prog.Len()
	}
	return 0
}

// CostBytes estimates the prepared statement's resident size for
// byte-based plan-cache accounting: the bytes of every program compiled
// so far (one per part for a scattered query — they all die with the
// statement), or a query-text-proportional floor for tree-only
// statements.
func (p *Prepared) CostBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, prog := range p.progs {
		if prog != nil {
			n += prog.SizeBytes()
		}
	}
	if n == 0 {
		n = 256 + 2*len(p.text)
	}
	return n
}

// Disassemble returns the compiled program's instruction listing
// (empty when the query runs on the tree walker).
func (p *Prepared) Disassemble() string {
	if prog := p.program(p.planStore()); prog != nil {
		return prog.Disassemble()
	}
	return ""
}

// Execute evaluates the prepared query under ctx with per-call options
// — the single prepared-statement entry point. See Database.Execute for
// the ctx and options semantics.
func (p *Prepared) Execute(ctx context.Context, opts QueryOptions) (*Results, error) {
	return p.run(ctx, opts)
}

// Explain renders the evaluation strategy for a query without running
// it: summary accesses, compressed-domain predicate pushdowns, and the
// join strategies (compressed merge join vs decompressing hash join).
// On a sharded database the scatter decision leads, followed by the
// per-shard plan (shard repositories share one summary shape, so shard
// 0's plan is every shard's plan).
func (db *Database) Explain(q string) (string, error) {
	if db.set == nil {
		return engine.New(db.store).Explain(q)
	}
	expr, err := xquery.Parse(q)
	if err != nil {
		return "", tagErr(ErrParse, err)
	}
	parts, noun := len(db.set.Stores), db.set.Layout.Noun
	var head string
	switch dec := db.set.Decide(expr); {
	case dec.Scatter:
		head = fmt.Sprintf("scatter across %d %ss, merge by document order\n", parts, noun)
	case parts == 1:
		head = fmt.Sprintf("single %s; evaluate directly\n", noun)
	default:
		head = fmt.Sprintf("no scatter (%s); evaluate on fused store\n", dec.Reason)
	}
	plan, err := engine.New(db.memberStores()[0]).Explain(q)
	if err != nil {
		return "", err
	}
	return head + plan, nil
}

// ExplainProgram returns the compiled bytecode program's disassembly
// for a query — opcodes, operands, and the containers and summary
// paths resolved at compile time — the companion to Explain's
// tree-level plan. On a sharded database the program shown is shard
// 0's (shard repositories share one summary shape). An empty string
// means the query runs on the tree walker.
func (db *Database) ExplainProgram(q string) (string, error) {
	expr, err := xquery.Parse(q)
	if err != nil {
		return "", tagErr(ErrParse, err)
	}
	prog, err := vm.Compile(expr, db.memberStores()[0], q)
	if err != nil {
		return "", nil
	}
	return prog.Disassemble(), nil
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
// for the serialized repository (summed over the shards/segments when
// sharded or segmented).
func (db *Database) CompressionFactor() float64 {
	s := db.Stats()
	if s.OriginalBytes == 0 {
		return 0
	}
	return 1 - float64(s.CompressedBytes)/float64(s.OriginalBytes)
}

// memberStores lists every physical store of the database: the single
// repository, or all shard/segment members.
func (db *Database) memberStores() []*storage.Store {
	if db.set != nil {
		return db.set.Stores
	}
	return []*storage.Store{db.store}
}

// Footprint aggregates the in-memory component sizes over every member
// repository (base store plus shard or segment members), so
// AccessOverheadFactor reflects the whole database rather than just
// the base store.
func (db *Database) Footprint() storage.Footprint {
	var f storage.Footprint
	for _, st := range db.memberStores() {
		f = f.Add(st.Footprint())
	}
	return f
}

// ResidentBytes is the database's total in-memory size across all
// member repositories — what the server exports per repository as the
// xquecd_repo_resident_bytes gauge.
func (db *Database) ResidentBytes() int { return db.Footprint().Total() }

// StructureBitsPerNode reports the density of the succinct structure
// encoding — paren bits, rank/select and shortcut directories, and
// node marks — aggregated over all member repositories, in bits per
// tree node (elements + attributes + text values).
func (db *Database) StructureBitsPerNode() float64 {
	bits, nodes := 0, 0
	for _, s := range db.memberStores() {
		bp, marks, n := s.StructureStats()
		bits += bp + marks
		nodes += n
	}
	if nodes == 0 {
		return 0
	}
	return float64(bits) / float64(nodes)
}

// Stats summarizes the database; for a sharded or segmented database
// the sizes and counts aggregate over all member repositories (spine
// duplication means a shard set carries slightly more nodes than the
// single repository; a segment set duplicates only the root element
// per segment).
func (db *Database) Stats() Stats {
	var agg Stats
	if db.set != nil {
		agg.OriginalBytes = db.set.OriginalSize()
	} else {
		agg.OriginalBytes = db.store.OriginalSize
	}
	for _, st := range db.memberStores() {
		f := st.Footprint()
		agg.CompressedBytes += len(st.AppendBinary(nil))
		agg.Nodes += st.NumNodes()
		agg.Containers += len(st.Containers)
		agg.SourceModels += len(st.Models)
		agg.SummaryNodes += len(st.Sum.Nodes())
		agg.InMemoryTotal += f.Total()
		agg.InMemoryMinimal += f.Minimal()
	}
	return agg
}

// IngestStats reports the compressor pipeline's phase timings and
// worker count for this database (shard 0's pipeline when sharded —
// shards ingest concurrently, so one shard's wall time is
// representative). Zero for databases opened from disk — the timings
// describe a Compress run, not the repository itself.
func (db *Database) IngestStats() storage.BuildStats { return db.memberStores()[0].Build }

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
	Shard     int // owning shard (0 for unsharded databases)
	Segment   int // owning segment (0 for unsegmented databases)
}

// Containers lists the database's value containers. For a sharded or
// segmented database the listing concatenates every member's
// containers (Shard/Segment identifies the owner; the same path
// appears once per member holding values for it).
func (db *Database) Containers() []ContainerInfo {
	var out []ContainerInfo
	for i, st := range db.memberStores() {
		for _, c := range st.Containers {
			ci := ContainerInfo{
				Path:      c.Path,
				Kind:      c.Kind.String(),
				Algorithm: c.Codec().Name(),
				Group:     c.Group,
				Records:   c.Len(),
				Bytes:     c.CompressedBytes(),
			}
			if db.Sharded() {
				ci.Shard = i
			} else {
				ci.Segment = i
			}
			out = append(out, ci)
		}
	}
	return out
}

// ParseQuery checks a query for syntax errors without running it.
func ParseQuery(q string) error {
	_, err := xquery.Parse(q)
	return tagErr(ErrParse, err)
}
