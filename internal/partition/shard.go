package partition

import (
	"cmp"
	"fmt"
	"path/filepath"
	"slices"
	"strings"

	"xquec/internal/storage"
	"xquec/internal/xpar"
)

// ShardManifest is the persisted description of a shard set: how many
// shards, where they live, how subtrees were routed, and the dictionary
// hash every shard must reproduce.
//
// The routing map is implicit in the "roundrobin" policy: the k-th
// partitioned subtree (document order) of shard s has global rank
// k*len(Shards)+s, so merge order needs no per-subtree table.
type ShardManifest struct {
	Format string `json:"format"` // ShardManifestFormat
	// Shards are the shard repository file names, in shard order,
	// relative to the manifest's directory.
	Shards []string `json:"shards"`
	// PartitionLevel is the element level whose subtrees were routed
	// (root = 1).
	PartitionLevel int `json:"partition_level"`
	// Routing is the subtree routing policy; "roundrobin" is the only
	// one defined.
	Routing string `json:"routing"`
	// Subtrees is the total number of partitioned subtrees.
	Subtrees int `json:"subtrees"`
	// SubtreeCounts is the per-shard partitioned subtree count.
	SubtreeCounts []int `json:"subtree_counts"`
	// DictHash is the SHA-256 of the shared name dictionary; every
	// shard repository of the set must reproduce it.
	DictHash string `json:"dict_hash"`
	// OriginalSize is the uncompressed corpus size in bytes.
	OriginalSize int `json:"original_size"`
}

func (m *ShardManifest) check() error {
	if m.Format != ShardManifestFormat {
		return fmt.Errorf("partition: manifest format %q, want %q", m.Format, ShardManifestFormat)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("partition: manifest lists no shards")
	}
	if m.Routing != "roundrobin" {
		return fmt.Errorf("partition: unknown routing policy %q", m.Routing)
	}
	if len(m.SubtreeCounts) != len(m.Shards) {
		return fmt.Errorf("partition: %d subtree counts for %d shards", len(m.SubtreeCounts), len(m.Shards))
	}
	if m.PartitionLevel < 2 {
		return fmt.Errorf("partition: partition level %d < 2", m.PartitionLevel)
	}
	return nil
}

// span is one partitioned subtree in a shard store: the pre-order ID of
// its root and the largest ID in its subtree. Spans are in document
// order (ascending, disjoint), so a binding node maps to its subtree by
// binary search.
type span struct {
	start, end storage.NodeID
}

// Build splits src into `shards` shard repositories (shard-aware
// ingest) and assembles the in-memory Set.
func Build(src []byte, shards int, opts storage.LoadOptions) (*Set, error) {
	stores, split, err := storage.LoadSharded(src, shards, opts)
	if err != nil {
		return nil, err
	}
	man := &ShardManifest{
		Format:         ShardManifestFormat,
		Shards:         make([]string, shards),
		PartitionLevel: split.PartitionLevel,
		Routing:        "roundrobin",
		Subtrees:       split.Subtrees,
		SubtreeCounts:  split.SubtreeCounts,
		DictHash:       DictionaryHash(split.Dictionary),
		OriginalSize:   len(src),
	}
	for i := range man.Shards {
		man.Shards[i] = fmt.Sprintf("shard-%03d.xqc", i)
	}
	return newShardSet(man, stores)
}

// openShards loads a shard set from its manifest bytes. Each shard is
// checked against the manifest's dictionary hash so shards from
// different builds cannot be mixed.
func openShards(path string, data []byte) (*Set, error) {
	man := &ShardManifest{}
	if err := parseManifest(data, man); err != nil {
		return nil, err
	}
	stores, _, err := openParts(filepath.Dir(path), man.Shards, "shard")
	if err != nil {
		return nil, err
	}
	return newShardSet(man, stores)
}

// openParts loads the named part repositories from dir in parallel,
// returning the stores and the full paths they were read from.
func openParts(dir string, names []string, noun string) ([]*storage.Store, []string, error) {
	stores := make([]*storage.Store, len(names))
	paths := make([]string, len(names))
	err := xpar.ForEach(len(names), len(names), func(i int) error {
		paths[i] = filepath.Join(dir, names[i])
		st, err := storage.OpenFile(paths[i])
		if err != nil {
			return fmt.Errorf("partition: opening %s %d (%s): %w", noun, i, names[i], err)
		}
		stores[i] = st
		return nil
	})
	return stores, paths, err
}

func newShardSet(man *ShardManifest, stores []*storage.Store) (*Set, error) {
	s := &Set{
		Layout:  Layout{Noun: "shard", Level: man.PartitionLevel, Interleaved: true},
		Stores:  stores,
		Shards:  man,
		tables:  make([][]span, len(stores)),
		workers: make([]Worker, len(stores)),
	}
	for i, st := range stores {
		s.workers[i] = &inprocWorker{set: s, part: i}
		if got := DictionaryHash(st.Names); got != man.DictHash {
			return nil, fmt.Errorf("partition: shard %d dictionary hash %.12s does not match manifest %.12s (mixed shard builds?)", i, got, man.DictHash)
		}
		s.tables[i] = subtreeTable(st, man.PartitionLevel)
		if len(s.tables[i]) != man.SubtreeCounts[i] {
			return nil, fmt.Errorf("partition: shard %d has %d partitioned subtrees, manifest says %d", i, len(s.tables[i]), man.SubtreeCounts[i])
		}
	}
	return s, nil
}

// subtreeTable collects the partitioned subtree roots of one shard
// store: elements (not attributes — attributes of spine elements also
// sit at the partition level) whose level equals the partition level,
// in document order.
func subtreeTable(st *storage.Store, level int) []span {
	var roots []storage.NodeID
	st.ScanNodes(func(id storage.NodeID, lvl uint16) {
		if int(lvl) != level || st.IsAttr(id) {
			return
		}
		roots = append(roots, id)
	})
	ends := make([]storage.NodeID, len(roots))
	st.SubtreeEndBulk(roots, ends)
	out := make([]span, len(roots))
	for i, id := range roots {
		out[i] = span{start: id, end: ends[i]}
	}
	return out
}

// rankOf maps a node of one shard store to the global document-order
// rank of the partitioned subtree containing it. ok is false for spine
// nodes (nodes outside every partitioned subtree) — a scatter-safe
// query never binds those.
func (s *Set) rankOf(shard int, id storage.NodeID) (uint64, bool) {
	table := s.tables[shard]
	lo, hi := 0, len(table)
	for lo < hi {
		mid := (lo + hi) / 2
		if table[mid].start <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	k := lo - 1
	if k < 0 || id > table[k].end {
		return 0, false
	}
	return uint64(k)*uint64(len(s.Stores)) + uint64(shard), true
}

// saveShards writes the shard repositories next to the manifest at path
// (which should end in ShardManifestExt). Shard file names derive from
// the manifest base name.
func (s *Set) saveShards(path string) error {
	dir := filepath.Dir(path)
	base := strings.TrimSuffix(filepath.Base(path), ShardManifestExt)
	for i, st := range s.Stores {
		s.Shards.Shards[i] = fmt.Sprintf("%s.shard-%03d.xqc", base, i)
		if err := st.SaveFile(filepath.Join(dir, s.Shards.Shards[i])); err != nil {
			return err
		}
	}
	return writeManifest(path, s.Shards)
}

// subtree is one partitioned subtree of a shard set.
type subtree struct {
	rank   uint64
	shard  int
	root   storage.NodeID
	parent int // ordinal of its parent among the spine elements
}

// subtreesInOrder lists the partitioned subtrees of all shards in global
// rank order — document order, the inverse of the round-robin split (the
// k-th table entry of shard s has rank k·N+s) — and shard 0's spine
// elements by ordinal. The splitter echoes the spine to every shard in
// document order, so the ordinal names a subtree's parent across shards,
// and the subtrees of one parent are a run of the list.
func (s *Set) subtreesInOrder() (subs []subtree, spine0 []storage.NodeID, err error) {
	for si, st := range s.Stores {
		var spine []storage.NodeID
		st.ScanNodes(func(id storage.NodeID, lvl uint16) {
			if int(lvl) < s.Layout.Level && !st.IsAttr(id) {
				spine = append(spine, id)
			}
		})
		if si == 0 {
			spine0 = spine
		}
		for k, sp := range s.tables[si] {
			ord, ok := slices.BinarySearch(spine, st.Parent(sp.start))
			if !ok || ord >= len(spine0) {
				return nil, nil, fmt.Errorf("partition: subtree %d of shard %d has non-spine parent", k, si)
			}
			subs = append(subs, subtree{uint64(k)*uint64(len(s.Stores)) + uint64(si), si, sp.start, ord})
		}
	}
	slices.SortFunc(subs, func(a, b subtree) int { return cmp.Compare(a.rank, b.rank) })
	return subs, spine0, nil
}

// spliceShards names the pieces of the original document: shard 0's
// structure — the spine with its attributes and text — cut at every
// parent of partitioned subtrees, where that parent's subtrees from all
// shards go in rank order in place of shard 0's own (it has no text, so
// they are its last children: the cut is from shard 0's first to its close).
func (s *Set) spliceShards(f *storage.Fusion) error {
	subs, spine0, err := s.subtreesInOrder()
	if err != nil {
		return err
	}
	at := 0
	for i := 0; i < len(subs); {
		_, end := f.Span(0, spine0[subs[i].parent])
		cut, j := end, i
		for ; j < len(subs) && subs[j].parent == subs[i].parent; j++ {
			if subs[j].shard == 0 && cut == end {
				cut, _ = f.Span(0, subs[j].root)
			}
		}
		if cut < at {
			return fmt.Errorf("partition: shard subtrees are not in document order")
		}
		f.Add(0, at, cut)
		for _, p := range subs[i:j] {
			open, end := f.Span(p.shard, p.root)
			f.Add(p.shard, open, end+1)
		}
		at, i = end, j
	}
	_, end := f.Span(0, 1)
	f.Add(0, at, end+1)
	return nil
}
