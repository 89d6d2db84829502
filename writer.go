package xquec

import (
	"context"
	"slices"
	"strings"
	"sync"

	"xquec/internal/partition"
	"xquec/internal/storage"
)

// Writer is the repository write path: Append stages documents, Commit
// ingests each staged document as its own append segment (sharing the
// repository's interned name dictionary) and publishes a new Database
// handle, Compact folds every segment back into a single freshly
// partitioned base segment, both on Compress's pipeline over values
// parsed from a staged document or decoded from the set. The underlying
// databases stay immutable — each Commit/Compact builds a new segment
// set and swaps the Writer's current handle, so readers holding an
// older handle keep a fully consistent snapshot for as long as they
// like.
//
// A Writer serializes its own operations (Append, Commit and Compact
// may be called from any goroutine) but there must be only one Writer
// per repository: two Writers over the same repository would each
// build private successor sets and the later Commit would silently
// drop the earlier one's segments.
//
// Appended documents must have the repository's root tag, and their
// root element must carry no attributes — the appended root is spliced
// away in the logical corpus (its children become children of the base
// root), so there is nowhere for its attributes to live.
type Writer struct {
	mu      sync.Mutex
	db      *Database
	opts    Options
	pending [][]byte
	path    string
	onSwap  func(*Database)
}

// NewWriter opens the write path over db. A plain single-repository
// database is adopted as the base segment of a fresh single-segment
// set (queries over the returned Writer's handle behave identically);
// a segmented database — cut by Options.Shards or opened from a
// segment-set manifest — continues its set. opts drives the compression
// of future appends and compactions; Options.Shards is ignored. A
// workload query that does not parse fails here, so no Commit can fail
// for it after documents were staged.
func NewWriter(db *Database, opts Options) (*Writer, error) {
	if _, err := opts.workload(); err != nil {
		return nil, err
	}
	if db.set == nil {
		segs, err := partition.NewBase(db.store)
		if err != nil {
			return nil, err
		}
		db = setDB(segs)
	}
	return &Writer{db: db, opts: opts}, nil
}

// DB returns the Writer's current Database handle (the latest
// committed state). The handle is immutable and safe to hold across
// later commits — it just stops reflecting them.
func (w *Writer) DB() *Database {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.db
}

// BindFile binds the Writer to a manifest path: every successful
// Commit and Compact persists the new set there (segment files are
// written next to it, superseded ones are garbage-collected). A ".xqcg"
// extension is appended when missing.
func (w *Writer) BindFile(path string) {
	if !strings.HasSuffix(path, partition.SegmentManifestExt) {
		path += partition.SegmentManifestExt
	}
	w.mu.Lock()
	w.path = path
	w.mu.Unlock()
}

// OnSwap registers a hook invoked (under the Writer's lock) with each
// newly published Database — the integration point for a serving pool
// that must swap its repository entry atomically.
func (w *Writer) OnSwap(fn func(*Database)) {
	w.mu.Lock()
	w.onSwap = fn
	w.mu.Unlock()
}

// Append stages doc for the next Commit. The document is validated
// (well-formed root, matching root tag, attribute-free root) but not
// ingested; the bytes are copied, so the caller may reuse the buffer.
func (w *Writer) Append(doc []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.db.set.CheckAppend(doc); err != nil {
		return err
	}
	w.pending = append(w.pending, append([]byte(nil), doc...))
	return nil
}

// Pending returns the number of staged, not-yet-committed documents.
func (w *Writer) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// Commit ingests every staged document as an append segment, fuses them
// onto the repository's store at once, and publishes the grown Database
// (also returned). Each appended document is parsed once and its plan
// chosen from its values under the Writer's Options. With nothing
// staged, Commit is a no-op returning the current handle. On error
// nothing is published; the document that failed to ingest — it never
// will — is dropped from the staging area so that it cannot block later
// commits, the others remain staged.
func (w *Writer) Commit() (*Database, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.commitLocked()
}

func (w *Writer) commitLocked() (*Database, error) {
	if len(w.pending) == 0 {
		return w.db, nil
	}
	segs, failed, err := w.db.set.Append(w.pending, w.plan)
	if failed >= 0 {
		w.pending = slices.Delete(w.pending, failed, failed+1)
	}
	if err != nil {
		return nil, err
	}
	return w.publishLocked(segs)
}

// Compact commits any staged documents, then folds the whole set into
// a single fresh base segment and publishes the compacted Database. The
// new base is built from the set's fused store without writing or
// parsing XML: its values are decoded once, the cost-model search is
// re-run over them when the Writer's Options carry a workload, and they
// are retrained and re-encoded under the fused structure — the
// repository Compress would build from the decompressed corpus under
// the Writer's Options, with the original size still the bytes
// ingested. Readers of previously returned handles are unaffected —
// their segment set is immutable. ctx is checked between the decode,
// the plan search and the rebuild.
func (w *Writer) Compact(ctx context.Context) (*Database, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.commitLocked(); err != nil {
		return nil, err
	}
	segs := w.db.set
	if len(segs.Segments.Segments) == 1 {
		return w.db, nil
	}
	compacted, err := segs.Compact(ctx, w.plan)
	if err != nil {
		return nil, err
	}
	return w.publishLocked(compacted)
}

// plan chooses the plan of a write's values under the Writer's Options.
func (w *Writer) plan(vals *storage.Values) (*CompressionPlan, error) {
	return w.opts.plan(vals, searchSeed)
}

// publishLocked persists (when bound to a file), swaps the current
// handle, clears the staging area and notifies the swap hook.
func (w *Writer) publishLocked(segs *partition.Set) (*Database, error) {
	if w.path != "" {
		if err := segs.Save(w.path); err != nil {
			return nil, err
		}
	}
	db := setDB(segs)
	w.pending = nil
	w.db = db
	if w.onSwap != nil {
		w.onSwap(db)
	}
	return db, nil
}
