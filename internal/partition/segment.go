package partition

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
	seen := make(map[string]bool, len(m.Segments))
	for i, name := range m.Segments {
		if name == "." || name == ".." || filepath.Base(name) != name {
			return fmt.Errorf("partition: segment %d name %q is not a file name in the manifest's directory", i, name)
		}
		if seen[name] {
			return fmt.Errorf("partition: segment %d name %q is listed twice", i, name)
		}
		seen[name] = true
		if m.OriginalSizes[i] < 0 {
			return fmt.Errorf("partition: segment %d has negative original size %d", i, m.OriginalSizes[i])
		}
	}
	return nil
}

// NewBase wraps a freshly ingested store as a single-segment set.
func NewBase(store *storage.Store) (*Set, error) {
	root := store.TagOf(1)
	if root == "" || strings.HasPrefix(root, "@") {
		return nil, fmt.Errorf("partition: store has no element root")
	}
	return (&Set{Segments: &SegmentManifest{RootTag: root}}).grow([]*storage.Store{store})
}

// Build cuts doc into at most n parts (Cut) and ingests them through the
// write path under plan: the first part is the base, the others are
// appended. Each segment is charged the bytes of doc it covers, so the
// original sizes sum to len(doc).
func Build(doc []byte, n int, plan *storage.CompressionPlan) (*Set, error) {
	parts, sizes, err := cut(doc, n)
	if err != nil {
		return nil, err
	}
	stores := make([]*storage.Store, len(parts))
	var dict []string
	for i, part := range parts {
		if stores[i], err = storage.Load(part, storage.LoadOptions{Plan: plan, Dictionary: dict}); err != nil {
			return nil, err
		}
		stores[i].OriginalSize = sizes[i]
		dict = stores[i].Names
	}
	set, err := NewBase(stores[0])
	if err == nil && len(parts) > 1 {
		set, err = set.grow(stores[1:])
	}
	return set, err
}

// Append ingests each doc, which must pass CheckAppend, as its own
// append segment on the chain's name dictionary, and returns the grown
// set; the receiver is untouched. Each doc is parsed (storage.Parse),
// plan — when non-nil — chooses its compression plan from its values,
// and they are stored under it (Values.Store). When docs[i] does not
// ingest, failed is i; otherwise -1.
func (s *Set) Append(docs [][]byte, plan func(*storage.Values) (*storage.CompressionPlan, error)) (grown *Set, failed int, err error) {
	if len(docs) == 0 {
		return nil, -1, fmt.Errorf("partition: nothing to append")
	}
	stores := make([]*storage.Store, len(docs))
	dict := s.store.Names
	for i, doc := range docs {
		if stores[i], err = s.ingest(doc, dict, plan); err != nil {
			return nil, i, err
		}
		dict = stores[i].Names
	}
	grown, err = s.grow(stores)
	return grown, -1, err
}

// ingest is Append's write of one doc on dictionary dict.
func (s *Set) ingest(doc []byte, dict []string, plan func(*storage.Values) (*storage.CompressionPlan, error)) (*storage.Store, error) {
	if err := s.CheckAppend(doc); err != nil {
		return nil, err
	}
	vals, err := storage.Parse(doc, dict)
	if err != nil {
		return nil, err
	}
	var p *storage.CompressionPlan
	if plan != nil {
		if p, err = plan(vals); err != nil {
			return nil, err
		}
	}
	return vals.Store(p)
}

// grow adds stores, ingested on the set's dictionary chain, as segments:
// the grown set's store is one fusion of the receiver's store, already
// that of its segments, with theirs. Every set is grown from one of no
// segments, whose manifest carries only the root tag, the generation
// and the naming sequence.
func (s *Set) grow(stores []*storage.Store) (*Set, error) {
	old, n := s.Segments, len(s.segs)
	man := &SegmentManifest{
		Format:        SegmentManifestFormat,
		RootTag:       old.RootTag,
		Segments:      append(old.Segments[:n:n], make([]string, len(stores))...),
		DictHashes:    append(old.DictHashes[:n:n], make([]string, len(stores))...),
		OriginalSizes: append(old.OriginalSizes[:n:n], make([]int, len(stores))...),
		Generation:    old.Generation + 1,
		Sequence:      old.Sequence + len(stores),
	}
	segs := append(s.segs[:n:n], make([]segment, len(stores))...)
	for i, st := range stores {
		man.DictHashes[n+i] = DictionaryHash(st.Names)
		man.OriginalSizes[n+i] = st.OriginalSize
		segs[n+i] = newSegment(st, old.Sequence+i)
	}
	parts := stores
	if s.store != nil {
		parts = append([]*storage.Store{s.store}, stores...)
	}
	set := &Set{Segments: man, segs: segs}
	var err error
	if set.store, err = fuse(parts, set.OriginalSize()); err != nil {
		return nil, err
	}
	return set, nil
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
// checked before the decode and between the decode, the plan search and
// the rebuild.
func (s *Set) Compact(ctx context.Context, plan func(*storage.Values) (*storage.CompressionPlan, error)) (*Set, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vals, err := storage.DecodeValues(s.store)
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
	store, err := vals.Store(p)
	if err != nil {
		return nil, err
	}
	store.OriginalSize = s.OriginalSize()
	old := s.Segments
	return (&Set{Segments: &SegmentManifest{RootTag: old.RootTag, Generation: old.Generation, Sequence: old.Sequence}}).grow([]*storage.Store{store})
}

// Open loads a set from its manifest file: the segment files are read
// and loaded in parallel, on at most GOMAXPROCS workers, verified against
// the manifest's dictionary chain and fused, after which the set holds
// only their fusion.
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
	parts := make([]*storage.Store, len(man.Segments))
	segs := make([]segment, len(man.Segments))
	err = xpar.ForEach(runtime.GOMAXPROCS(0), len(parts), func(i int) error {
		full := filepath.Join(dir, man.Segments[i])
		data, err := os.ReadFile(full)
		if err == nil {
			parts[i], err = storage.LoadBinary(data)
		}
		if err != nil {
			return fmt.Errorf("partition: opening segment %d (%s): %w", i, man.Segments[i], err)
		}
		segs[i] = segment{size: len(data), savedAs: full}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := validateSegments(man, parts); err != nil {
		return nil, err
	}
	set := &Set{Segments: man, segs: segs}
	if set.store, err = fuse(parts, set.OriginalSize()); err != nil {
		return nil, err
	}
	return set, nil
}

// validateSegments checks the opened stores against the manifest:
// per-segment dictionary hashes, the prefix-extension chain (segment
// i+1's dictionary must extend segment i's), and the shared root tag.
func validateSegments(man *SegmentManifest, parts []*storage.Store) error {
	for i, st := range parts {
		if got := DictionaryHash(st.Names); got != man.DictHashes[i] {
			return fmt.Errorf("partition: segment %d dictionary hash %.12s does not match manifest %.12s (mixed segment builds?)", i, got, man.DictHashes[i])
		}
		if tag := st.TagOf(1); tag != man.RootTag {
			return fmt.Errorf("partition: segment %d root <%s> does not match manifest root <%s>", i, tag, man.RootTag)
		}
		if prev := parts[max(i-1, 0)].Names; len(st.Names) < len(prev) || !slices.Equal(st.Names[:len(prev)], prev) {
			return fmt.Errorf("partition: segment %d dictionary does not extend segment %d's", i, i-1)
		}
	}
	return nil
}

// spliceSegments builds the store of the concatenated corpus of parts:
// storage.Fusion copies the pieces it names — the base's structure up to
// its root's close, every later part's root content, and the close —
// merges the containers and proves the result, in the compressed domain
// throughout: nothing is serialized or parsed.
func spliceSegments(parts []*storage.Store) (*storage.Store, error) {
	f := storage.NewFusion(parts)
	_, end := f.Span(0)
	f.Add(0, 0, end)
	for i, st := range parts[1:] {
		if st.NumNodes() > 1 && st.IsAttr(2) {
			return nil, fmt.Errorf("segment %d root <%s> carries attributes (unsupported in a concatenation)", i+1, st.TagOf(1))
		}
		_, inner := f.Span(i + 1)
		f.Add(i+1, 1, inner)
	}
	f.Add(0, end, end+1)
	return f.Store()
}

// Save writes the set next to the manifest at path (conventionally
// ending in SegmentManifestExt): the segment files first, named after the
// manifest's base name, the manifest last. A segment already on disk at
// its target is not written; one saved elsewhere is copied from its file
// byte for byte, and one never saved is written from the bytes the set
// kept, which it drops once the manifest is in place — so a Save that
// fails loses nothing. Stale segment files from superseded sets are
// removed after the manifest is in place.
func (s *Set) Save(path string) error {
	dir := filepath.Dir(path)
	base := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	man := s.Segments
	saved := make([]string, len(s.segs))
	for i, g := range s.segs {
		if man.Segments[i] == "" {
			man.Segments[i] = fmt.Sprintf("%s.seg-%06d.xqc", base, g.seq)
		}
		if saved[i] = filepath.Join(dir, man.Segments[i]); saved[i] == g.savedAs {
			continue
		}
		data := g.data
		var err error
		if data == nil {
			data, err = os.ReadFile(g.savedAs)
		}
		if err == nil {
			err = os.WriteFile(saved[i], data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	if err := writeManifest(path, man); err != nil {
		return err
	}
	for i := range s.segs {
		s.segs[i].savedAs, s.segs[i].data = saved[i], nil
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
	removeSegments(dir, base, live)
}

// removeSegments removes the segment files in dir named after the
// manifest base name base that live does not hold, best-effort.
func removeSegments(dir, base string, live map[string]bool) {
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

// Remove deletes the set saved at path: the manifest first, so that no
// reader opens a set whose segments are going, then every segment file
// named after it (best-effort, as after a Save).
func Remove(path string) error {
	if err := os.Remove(path); err != nil {
		return err
	}
	removeSegments(filepath.Dir(path), strings.TrimSuffix(filepath.Base(path), filepath.Ext(path)), nil)
	return nil
}

// Resolve returns the file that holds the repository at path. A
// repository appended to is its segment set, so a ".xqc" path whose
// ".xqcg" manifest exists resolves to the manifest; a ".xqc" path that
// does not exist resolves to its ".xqcs" manifest (a database cut into
// shards) when that exists. Any other path is the file itself.
func Resolve(path string) string {
	base, ok := strings.CutSuffix(path, ".xqc")
	if !ok {
		return path
	}
	for _, p := range []string{base + SegmentManifestExt, path, base + ".xqcs"} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return path
}
