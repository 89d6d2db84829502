// Package partition is the partitioned-corpus layer: one logical corpus
// held as a segment set — several complete compressed repositories
// ("segments") that share one interned name dictionary, opened together
// through a manifest (".xqcg"). The logical corpus is the base segment's
// root with every later segment's root children spliced under it in
// segment order (splice.go). A set grows by appends (an immutable base
// plus one segment per appended document), or is cut from one document
// (Cut, Build: contiguous runs of the root's children). Sets are
// immutable values — Append and Compact return a NEW set — so a reader
// keeps a consistent snapshot under concurrent writes.
//
// The segments are files; the fused store is the database. Open, Build,
// Append and Compact each build the one store of the whole corpus
// (Store), spliced from the segments in the compressed domain, and then
// hold no segment's store: a set keeps of each segment only what
// persisting it needs. A set with a single segment is that segment.
package partition

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"xquec/internal/storage"
)

// Set is a partitioned corpus opened as one logical repository: its
// manifest, its one store, and what persisting each segment needs.
type Set struct {
	Segments *SegmentManifest

	store *storage.Store
	segs  []segment
}

// segment is what a set keeps of a fused segment: its naming sequence
// number, compressed size, last saved path, and bytes until it is saved.
type segment struct {
	seq     int
	size    int
	savedAs string
	data    []byte
}

// newSegment serializes a segment's store, which the set then drops.
func newSegment(st *storage.Store, seq int) segment {
	data := st.AppendBinary(nil)
	return segment{seq: seq, size: len(data), data: data}
}

// SegmentManifestFormat identifies a manifest file; SegmentManifestExt
// is its conventional extension. retiredShardFormat is the manifest of
// the round-robin shard layout, which is no longer read.
const (
	SegmentManifestFormat = "xqcg1"
	SegmentManifestExt    = ".xqcg"
	retiredShardFormat    = "xqcs1"
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

// parseManifest decodes data into m and validates it. The manifest is
// small JSON on purpose: the segment repositories carry the data, the
// manifest only records the topology.
func parseManifest(data []byte, m *SegmentManifest) error {
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
func writeManifest(path string, m *SegmentManifest) error {
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

// IsManifest reports whether data is a segment-set manifest, by its JSON
// format field.
func IsManifest(data []byte) bool {
	var probe struct {
		Format string `json:"format"`
	}
	return len(data) > 0 && data[0] == '{' && json.Unmarshal(data, &probe) == nil && probe.Format == SegmentManifestFormat
}

// OriginalSize is the uncompressed corpus size in bytes.
func (s *Set) OriginalSize() int {
	n := 0
	for _, sz := range s.Segments.OriginalSizes {
		n += sz
	}
	return n
}

// CompressedSize is the bytes of the set's segment files, saved or not.
func (s *Set) CompressedSize() int {
	n := 0
	for _, g := range s.segs {
		n += g.size
	}
	return n
}

// TopologyKey describes the set's topology for cache keying: two sets
// answer queries identically only if their topology keys match. The
// generation is included so a compaction (same logical corpus, new
// stores) still rolls the key.
func (s *Set) TopologyKey() string {
	return fmt.Sprintf("segments=%d;gen=%d;dict=%.12s", len(s.segs), s.Segments.Generation, s.Segments.DictHashes[len(s.segs)-1])
}

// Store returns the one store of the corpus, which every query runs on.
func (s *Set) Store() *storage.Store { return s.store }

// fuse builds the single store of parts, in segment order: one part IS
// the corpus, more are spliced (spliceSegments) into a store of the
// corpus's original size.
func fuse(parts []*storage.Store, originalSize int) (*storage.Store, error) {
	if len(parts) == 1 {
		return parts[0], nil
	}
	start := time.Now()
	st, err := spliceSegments(parts)
	if err != nil {
		return nil, fmt.Errorf("partition: fusing segments: %w", err)
	}
	st.OriginalSize = originalSize
	counters.fusions.Add(1)
	counters.fusionNanos.Add(int64(time.Since(start)))
	return st, nil
}
