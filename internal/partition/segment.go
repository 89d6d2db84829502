package partition

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"xquec/internal/storage"
	"xquec/internal/xpar"
)

// SegmentManifest is the persisted description of a segment set: the
// segment files in order, the dictionary chain that guards against
// mixing segments from different lineages, and the generation counter
// that makes every swap observable to topology-keyed plan caches.
type SegmentManifest struct {
	Format string `json:"format"` // SegmentManifestFormat
	// RootTag is the corpus root element name; every segment's document
	// root must carry it.
	RootTag string `json:"root_tag"`
	// Segments are the segment repository file names in segment order
	// (index 0 is the base), relative to the manifest's directory.
	Segments []string `json:"segments"`
	// DictHashes is the SHA-256 of each segment's name dictionary, in
	// segment order. Segment i+1's dictionary must extend segment i's as
	// a prefix (shared interning), so the last hash identifies the whole
	// chain.
	DictHashes []string `json:"dict_hashes"`
	// OriginalSizes is the per-segment uncompressed document size.
	OriginalSizes []int `json:"original_sizes"`
	// Generation increments on every committed append or compaction; it
	// feeds the topology key so plan caches never serve a plan compiled
	// against a superseded set.
	Generation int `json:"generation"`
	// Sequence is the monotone segment-naming counter: it never resets,
	// so a compacted set's files can never collide with files from the
	// set it replaced.
	Sequence int `json:"sequence"`
}

func (m *SegmentManifest) check() error {
	if m.Format == retiredShardFormat {
		return fmt.Errorf("partition: manifest format %q is the retired round-robin shard set, which is no longer read; rebuild the repository from its document", m.Format)
	}
	if m.Format != SegmentManifestFormat {
		return fmt.Errorf("partition: manifest format %q, want %q", m.Format, SegmentManifestFormat)
	}
	if len(m.Segments) == 0 {
		return fmt.Errorf("partition: manifest lists no segments")
	}
	if m.RootTag == "" {
		return fmt.Errorf("partition: manifest has no root tag")
	}
	if len(m.DictHashes) != len(m.Segments) {
		return fmt.Errorf("partition: %d dictionary hashes for %d segments", len(m.DictHashes), len(m.Segments))
	}
	if len(m.OriginalSizes) != len(m.Segments) {
		return fmt.Errorf("partition: %d original sizes for %d segments", len(m.OriginalSizes), len(m.Segments))
	}
	return nil
}

// newSegmentSet assembles a segment set: the corpus root is depth 1 and
// every segment contributes a contiguous run of its children (depth 2),
// so a binding strictly below the root lives entirely inside one
// segment.
func newSegmentSet(man *SegmentManifest, stores []*storage.Store, seqs []int, savedAs []string) *Set {
	return &Set{Stores: stores, Segments: man, seqs: seqs, savedAs: savedAs}
}

// singleSegment assembles a one-segment set around store, claiming
// naming sequence number seq for it.
func singleSegment(root string, store *storage.Store, size, generation, seq int) *Set {
	man := &SegmentManifest{
		Format:        SegmentManifestFormat,
		RootTag:       root,
		Segments:      []string{""},
		DictHashes:    []string{DictionaryHash(store.Names)},
		OriginalSizes: []int{size},
		Generation:    generation,
		Sequence:      seq + 1,
	}
	return newSegmentSet(man, []*storage.Store{store}, []int{seq}, []string{""})
}

// NewBase wraps a freshly ingested store as a single-segment set.
func NewBase(store *storage.Store) (*Set, error) {
	root := store.TagOf(1)
	if root == "" || strings.HasPrefix(root, "@") {
		return nil, fmt.Errorf("partition: store has no element root")
	}
	return singleSegment(root, store, store.OriginalSize, 1, 0), nil
}

// Build cuts doc into at most n parts (Cut) and ingests them through the
// write path: the first part is the base, the others are appended. Each
// segment is charged the bytes of doc it covers, so the original sizes
// sum to len(doc).
func Build(doc []byte, n int, opts storage.LoadOptions) (*Set, error) {
	parts, sizes, err := cut(doc, n)
	if err != nil {
		return nil, err
	}
	base, err := storage.Load(parts[0], opts)
	if err != nil {
		return nil, err
	}
	set, err := NewBase(base)
	if err == nil && len(parts) > 1 {
		set, err = set.Append(parts[1:], opts)
	}
	if err != nil {
		return nil, err
	}
	for i, st := range set.Stores {
		st.OriginalSize = sizes[i]
		set.Segments.OriginalSizes[i] = sizes[i]
	}
	return set, nil
}

// Append ingests each doc as its own append segment and returns the
// grown set. The receiver is untouched. Every doc must pass
// CheckAppend. Each new segment's name dictionary is pre-seeded with
// the previous segment's full dictionary, keeping name codes identical
// across the whole chain.
func (s *Set) Append(docs [][]byte, opts storage.LoadOptions) (*Set, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("partition: nothing to append")
	}
	old := s.Segments
	n := len(s.Stores)
	stores := append(s.Stores[:n:n], make([]*storage.Store, len(docs))...)
	man := &SegmentManifest{
		Format:        SegmentManifestFormat,
		RootTag:       old.RootTag,
		Segments:      append(old.Segments[:n:n], make([]string, len(docs))...),
		DictHashes:    append(old.DictHashes[:n:n], make([]string, len(docs))...),
		OriginalSizes: append(old.OriginalSizes[:n:n], make([]int, len(docs))...),
		Generation:    old.Generation + 1,
		Sequence:      old.Sequence + len(docs),
	}
	seqs := append(s.seqs[:n:n], make([]int, len(docs))...)
	savedAs := append(s.savedAs[:n:n], make([]string, len(docs))...)
	for i, doc := range docs {
		if err := s.CheckAppend(doc); err != nil {
			return nil, err
		}
		opts.Dictionary = stores[n+i-1].Names
		st, err := storage.Load(doc, opts)
		if err != nil {
			return nil, err
		}
		stores[n+i] = st
		man.DictHashes[n+i] = DictionaryHash(st.Names)
		man.OriginalSizes[n+i] = len(doc)
		seqs[n+i] = old.Sequence + i
	}
	return newSegmentSet(man, stores, seqs, savedAs), nil
}

// CheckAppend validates doc as an append candidate without ingesting
// it: the root tag must match the set's and the root must carry no
// attributes (it is spliced away in the concatenated corpus, so there
// is nowhere for attributes to live).
func (s *Set) CheckAppend(doc []byte) error {
	p, err := splitDoc(doc)
	if err != nil {
		return err
	}
	if p.root != s.Segments.RootTag {
		return fmt.Errorf("partition: appended document root <%s> does not match repository root <%s>", p.root, s.Segments.RootTag)
	}
	if p.hasAttrs {
		return fmt.Errorf("partition: appended document root <%s> carries attributes; only the base root may", p.root)
	}
	return nil
}

// Compact folds the set into a single fresh base segment and returns the
// compacted one-segment set (generation moves forward, the naming
// sequence is not reused, so the compacted file can never collide with
// the files it replaces). The new base is built from the fused store, not
// from its XML: its values are decoded once (storage.DecodeValues), plan
// — when non-nil — chooses the compression plan from them (the §3 search
// re-run over the union), and they are retrained and re-encoded in record
// order (Values.Store) under the fused structure. The result is the
// repository a re-ingest of the serialized corpus would build, byte for
// byte, except that the original size stays the bytes ingested. ctx is
// checked before the fuse and between the fuse, the plan search and the
// rebuild.
func (s *Set) Compact(ctx context.Context, par int, plan func(*storage.Values) (*storage.CompressionPlan, error)) (*Set, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fused, err := s.Fused()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vals, err := storage.DecodeValues(fused, par)
	if err != nil {
		return nil, err
	}
	var p *storage.CompressionPlan
	if plan != nil {
		if p, err = plan(vals); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	store, err := vals.Store(p, par)
	if err != nil {
		return nil, err
	}
	store.OriginalSize = s.OriginalSize()
	old := s.Segments
	return singleSegment(old.RootTag, store, store.OriginalSize, old.Generation+1, old.Sequence), nil
}

// Open loads a set from its manifest file. The segment repositories load
// in parallel and are verified against the manifest's dictionary chain.
func Open(path string) (*Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	man := &SegmentManifest{}
	if err := parseManifest(data, man); err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	stores := make([]*storage.Store, len(man.Segments))
	savedAs := make([]string, len(man.Segments))
	err = xpar.ForEach(len(stores), len(stores), func(i int) error {
		savedAs[i] = filepath.Join(dir, man.Segments[i])
		st, err := storage.OpenFile(savedAs[i])
		if err != nil {
			return fmt.Errorf("partition: opening segment %d (%s): %w", i, man.Segments[i], err)
		}
		stores[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	seqs := make([]int, len(stores))
	for i := range seqs {
		seqs[i] = i
	}
	set := newSegmentSet(man, stores, seqs, savedAs)
	if err := set.validateSegments(); err != nil {
		return nil, err
	}
	return set, nil
}

// validateSegments checks the opened stores against the manifest:
// per-segment dictionary hashes, the prefix-extension chain (segment
// i+1's dictionary must extend segment i's), and the shared root tag.
func (s *Set) validateSegments() error {
	man := s.Segments
	for i, st := range s.Stores {
		if got := DictionaryHash(st.Names); got != man.DictHashes[i] {
			return fmt.Errorf("partition: segment %d dictionary hash %.12s does not match manifest %.12s (mixed segment builds?)", i, got, man.DictHashes[i])
		}
		if tag := st.TagOf(1); tag != man.RootTag {
			return fmt.Errorf("partition: segment %d root <%s> does not match manifest root <%s>", i, tag, man.RootTag)
		}
		if i == 0 {
			continue
		}
		prev := s.Stores[i-1].Names
		if len(st.Names) < len(prev) {
			return fmt.Errorf("partition: segment %d dictionary shrinks the chain", i)
		}
		for j, name := range prev {
			if st.Names[j] != name {
				return fmt.Errorf("partition: segment %d dictionary diverges from segment %d at name %d (%q vs %q)", i, i-1, j, st.Names[j], name)
			}
		}
	}
	return nil
}

// spliceSegments names the pieces of the concatenated corpus: the base's
// structure up to its root's close, every later segment's root content,
// and the close.
func (s *Set) spliceSegments(f *storage.Fusion) error {
	_, end := f.Span(0, 1)
	f.Add(0, 0, end)
	for i, st := range s.Stores[1:] {
		if st.NumNodes() > 1 && st.IsAttr(2) {
			return fmt.Errorf("segment %d root <%s> carries attributes (unsupported in a concatenation)", i+1, st.TagOf(1))
		}
		_, inner := f.Span(i+1, 1)
		f.Add(i+1, 1, inner)
	}
	f.Add(0, end, end+1)
	return nil
}

// Save writes the set next to the manifest at path (conventionally
// ending in SegmentManifestExt): the segment files first, named after the
// manifest's base name, the manifest last. Only segments not already on
// disk at their target are written; stale segment files from superseded
// sets are removed after the manifest is in place.
func (s *Set) Save(path string) error {
	dir := filepath.Dir(path)
	base := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	man := s.Segments
	for i, st := range s.Stores {
		name := man.Segments[i]
		if name == "" {
			name = fmt.Sprintf("%s.seg-%06d.xqc", base, s.seqs[i])
			man.Segments[i] = name
		}
		full := filepath.Join(dir, name)
		if s.savedAs[i] == full {
			continue
		}
		if err := st.SaveFile(full); err != nil {
			return err
		}
		s.savedAs[i] = full
	}
	if err := writeManifest(path, man); err != nil {
		return err
	}
	s.gcStale(dir, base)
	return nil
}

// gcStale removes segment files of superseded sets: files matching the
// manifest's naming scheme that the current manifest no longer lists.
// Best-effort — a failed removal leaves garbage, never corruption.
func (s *Set) gcStale(dir, base string) {
	live := map[string]bool{}
	for _, name := range s.Segments.Segments {
		live[name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	prefix := base + ".seg-"
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".xqc") || live[name] {
			continue
		}
		os.Remove(filepath.Join(dir, name))
	}
}
