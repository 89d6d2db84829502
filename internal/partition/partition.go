// Package partition is the partitioned-corpus layer: one logical corpus
// held as several complete compressed repositories ("parts") that share
// one interned name dictionary, opened together as a Set. Two layouts
// cut a corpus into parts:
//
//   - a shard set (".xqcs") is built once from a whole document by the
//     shard-aware ingest in internal/storage: the subtrees at the
//     partition level are routed round-robin over N shards and the spine
//     above them is replicated into every shard, so the shards are
//     balanced and every region of the document has a piece in each;
//   - a segment set (".xqcg") grows by appends: an immutable base
//     segment plus one segment per appended document, the logical corpus
//     being the base root with every segment's root children spliced
//     under it in segment order (splice.go). Sets are immutable values —
//     Append and Compact return a NEW set sharing the unchanged stores —
//     so a reader keeps a consistent snapshot under concurrent writes.
//
// The package is the manifests of both layouts and their fusion: every
// query over a set runs on Fused, the one store of the whole corpus,
// spliced from the parts in the compressed domain and built at most once
// per Set value. A set with a single part is that part.
package partition

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xquec/internal/storage"
)

// Layout is what distinguishes the two ways a corpus is cut into parts,
// as far as the shared code is concerned.
type Layout struct {
	// Noun names a part in messages: "shard" or "segment".
	Noun string
	// Level is the split level (root = 1): every element at this depth
	// lives, with its whole subtree, in exactly one part. It is the
	// manifest's partition_level for a shard set and 2 for a segment set
	// (every segment contributes a run of root children).
	Level int
	// Interleaved is true for round-robin routing: consecutive subtrees
	// at Level go to different parts, so the document-order rank of the
	// k-th subtree of part p is k·N+p (read off the subtree table) and the
	// spine above Level is replicated into every part. False means each
	// part is one contiguous run of the corpus sharing only the root
	// element, whose attributes the base part alone carries. It selects
	// the splice that fuses the parts.
	Interleaved bool
}

// Set is a partitioned corpus opened as one logical repository: the
// layout, the manifest of that layout, and the per-part stores in part
// order.
type Set struct {
	Layout Layout
	Stores []*storage.Store

	// Exactly one manifest is non-nil, matching the layout.
	Shards   *ShardManifest
	Segments *SegmentManifest

	// tables holds, per shard, the partitioned subtree roots in document
	// order (shard sets only).
	tables [][]storage.NodeID

	// seqs are the per-segment naming sequence numbers (Sequence values
	// claimed at segment creation); savedAs remembers where each segment
	// was last written so Save only touches new segments (segment sets
	// only).
	seqs    []int
	savedAs []string

	// fused is the lazily reconstructed single store every query runs
	// on. Built at most once per Set value.
	fuseOnce sync.Once
	fused    *storage.Store
	fuseErr  error
}

// ShardManifestFormat and SegmentManifestFormat identify the two
// manifest files; the extensions are the conventional file names.
const (
	ShardManifestFormat   = "xqcs1"
	ShardManifestExt      = ".xqcs"
	SegmentManifestFormat = "xqcg1"
	SegmentManifestExt    = ".xqcg"
)

// DictionaryHash hashes a name dictionary (order-sensitive,
// length-prefixed so name boundaries cannot alias). Every part of a set
// must reproduce the hash its manifest records, which guards against
// mixing parts from different builds or lineages.
func DictionaryHash(names []string) string {
	h := sha256.New()
	var lenBuf [4]byte
	for _, n := range names {
		lenBuf[0] = byte(len(n))
		lenBuf[1] = byte(len(n) >> 8)
		lenBuf[2] = byte(len(n) >> 16)
		lenBuf[3] = byte(len(n) >> 24)
		h.Write(lenBuf[:])
		h.Write([]byte(n))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// manifest is what the two on-disk descriptions share: both are small
// JSON on purpose (the part repositories carry the data, the manifest
// only records the topology) and both validate themselves after
// decoding.
type manifest interface {
	check() error
}

// parseManifest decodes data into m and validates it.
func parseManifest(data []byte, m manifest) error {
	if err := json.Unmarshal(data, m); err != nil {
		return fmt.Errorf("partition: manifest is not valid JSON: %w", err)
	}
	return m.check()
}

// writeManifest encodes m as indented JSON (manifests are meant to be
// human-inspectable) at path. Callers write it after the part files, so
// a readable manifest implies readable parts. The new manifest is
// written and synced under a temporary name in the same directory, then
// renamed over path: a reader opening path sees the old manifest or the
// new one, never a truncated or half-written file.
func writeManifest(path string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(append(data, '\n'))
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// SniffManifest classifies raw bytes as a set manifest by the JSON
// format field, returning the layout's part noun ("shard", "segment"),
// or "" for anything that is not a recognizable manifest.
func SniffManifest(data []byte) string {
	var probe struct {
		Format string `json:"format"`
	}
	if len(data) == 0 || data[0] != '{' || json.Unmarshal(data, &probe) != nil {
		return ""
	}
	switch probe.Format {
	case ShardManifestFormat:
		return "shard"
	case SegmentManifestFormat:
		return "segment"
	}
	return ""
}

// Open loads a set from its manifest file, whichever layout it
// describes. Part repositories load in parallel and are verified
// against the manifest's dictionary hashes.
func Open(path string) (*Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if SniffManifest(data) == "segment" {
		return openSegments(path, data)
	}
	// Anything else goes to the shard-manifest parser, whose error names
	// the format it expected.
	return openShards(path, data)
}

// OriginalSize is the uncompressed corpus size in bytes.
func (s *Set) OriginalSize() int {
	if s.Shards != nil {
		return s.Shards.OriginalSize
	}
	n := 0
	for _, sz := range s.Segments.OriginalSizes {
		n += sz
	}
	return n
}

// TopologyKey describes the set's topology for cache keying: two sets
// answer queries identically only if their topology keys match. A
// segment set's generation is included so a compaction (same logical
// corpus, new stores) still rolls the key.
func (s *Set) TopologyKey() string {
	if m := s.Shards; m != nil {
		return fmt.Sprintf("shards=%d;level=%d;subtrees=%d;dict=%.12s",
			len(s.Stores), m.PartitionLevel, m.Subtrees, m.DictHash)
	}
	return fmt.Sprintf("segments=%d;gen=%d;dict=%.12s",
		len(s.Stores), s.Segments.Generation, s.Segments.DictHashes[len(s.Stores)-1])
}

// Save writes the set next to the manifest at path: the part files
// first, the manifest last.
func (s *Set) Save(path string) error {
	if s.Shards != nil {
		return s.saveShards(path)
	}
	return s.saveSegments(path)
}

// FuseXML serializes the fused store: the whole corpus as one document, for
// decompression to return. No query and no compaction needs it.
func (s *Set) FuseXML() ([]byte, error) {
	st, err := s.Fused()
	if err != nil {
		return nil, err
	}
	return st.Serialize(nil, 1)
}

// Fused returns the single store of the whole corpus, built on first use:
// every query over the set runs on it. A set with a single part IS the
// corpus. Otherwise the layout names the pieces of the parts' structures
// in document order and storage.Fusion copies them, merges the containers
// and proves the result: compressed domain throughout, nothing serialized
// or parsed.
func (s *Set) Fused() (*storage.Store, error) {
	s.fuseOnce.Do(func() {
		if len(s.Stores) == 1 {
			s.fused = s.Stores[0]
			return
		}
		start := time.Now()
		f := storage.NewFusion(s.Stores)
		splice := s.spliceSegments
		if s.Layout.Interleaved {
			splice = s.spliceShards
		}
		err := splice(f)
		if err == nil {
			s.fused, err = f.Store()
		}
		if err != nil {
			s.fuseErr = fmt.Errorf("partition: fusing %ss: %w", s.Layout.Noun, err)
			return
		}
		s.fused.OriginalSize = s.OriginalSize()
		counters.fusions.Add(1)
		counters.fusionNanos.Add(int64(time.Since(start)))
	})
	return s.fused, s.fuseErr
}
