package xquec_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xquec"
	"xquec/internal/datagen"
	"xquec/internal/partition"
	"xquec/internal/xmarkq"
)

// segDocs generates n distinct XMark documents sharing the <site> root
// — the append-segment corpus for the differential suite.
func segDocs(t *testing.T, n int, scale float64) [][]byte {
	t.Helper()
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = datagen.XMark(datagen.XMarkConfig{Scale: scale, Seed: int64(50 + i)})
	}
	return docs
}

// segmentedDB builds a Database of `segs` segments by appending through
// the Writer, one Commit per document (the worst case for generation
// churn).
func segmentedDB(t *testing.T, docs [][]byte) *xquec.Database {
	t.Helper()
	base, err := xquec.Compress(docs[0], xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := xquec.NewWriter(base, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := w.DB()
	for _, doc := range docs[1:] {
		if err := w.Append(doc); err != nil {
			t.Fatal(err)
		}
		if db, err = w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if db.Segments() != len(docs) {
		t.Fatalf("Segments() = %d, want %d", db.Segments(), len(docs))
	}
	return db
}

// TestAppendResultsIdentical is the tier-1 guarantee of the mutable
// repository: for EVERY benchmark query a database grown by appends
// returns byte-identical results to a full re-ingest of the concatenated
// corpus, across segment counts {1,2,4} × the baseline built whole and
// cut in two (Options.Shards {1,2}) × parallelism {1,4}.
func TestAppendResultsIdentical(t *testing.T) {
	all := segDocs(t, 4, 0.02)
	queries := append(xmarkq.Queries(), xmarkq.ExtendedQueries()...)
	for _, segs := range []int{1, 2, 4} {
		docs := all[:segs]
		concat, err := partition.Concat(docs...)
		if err != nil {
			t.Fatal(err)
		}
		segDB := segmentedDB(t, docs)
		for _, shards := range []int{1, 2} {
			baseline, err := xquec.Compress(concat, xquec.Options{Shards: shards})
			if err != nil {
				t.Fatalf("segs=%d shards=%d: %v", segs, shards, err)
			}
			for _, par := range []int{1, 4} {
				opts := xquec.QueryOptions{Parallelism: par}
				for _, q := range queries {
					want := execXML(t, baseline, q.Text, opts)
					got := execXML(t, segDB, q.Text, opts)
					if got != want {
						t.Errorf("segs=%d shards=%d par=%d %s: appended result differs\n got: %.200q\nwant: %.200q",
							segs, shards, par, q.ID, got, want)
					}
				}
			}
		}
	}
}

// TestAppendVMTreeOracle holds the appended corpus to the DOM reference:
// every benchmark query over a multi-segment database must answer byte
// for byte what the reference answers over the concatenated document.
func TestAppendVMTreeOracle(t *testing.T) {
	docs := segDocs(t, 3, 0.02)
	db := segmentedDB(t, docs)
	concat, err := partition.Concat(docs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range append(xmarkq.Queries(), xmarkq.ExtendedQueries()...) {
		if got, want := execXML(t, db, q.Text, xquec.QueryOptions{}), domXML(t, concat, q.Text); got != want {
			t.Errorf("%s: differs from the reference\n      got: %.200q\nreference: %.200q", q.ID, got, want)
		}
	}
}

// TestCompactionSnapshotIsolation streams a query over a multi-segment
// database while a compaction swaps the Writer's handle mid-stream:
// the reader's snapshot must stay intact (identical results, no block,
// no corruption), and the compacted handle must answer identically
// with a single segment. Run under -race this also proves the
// swap/read paths share no unsynchronized state.
func TestCompactionSnapshotIsolation(t *testing.T) {
	docs := segDocs(t, 4, 0.02)
	base, err := xquec.Compress(docs[0], xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := xquec.NewWriter(base, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[1:] {
		if err := w.Append(doc); err != nil {
			t.Fatal(err)
		}
	}
	db, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	const q = `FOR $p IN document("auction.xml")/site/people/person RETURN $p/name/text()`
	want := execXML(t, db, q, xquec.QueryOptions{})

	// Open the streaming cursor and consume one item BEFORE compaction.
	res, err := db.Execute(context.Background(), q, xquec.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	first, ok, err := res.Next()
	if err != nil || !ok {
		t.Fatalf("first item: ok=%v err=%v", ok, err)
	}
	firstXML, err := first.XML()
	if err != nil {
		t.Fatal(err)
	}

	// Compact concurrently while the cursor is mid-stream.
	done := make(chan error, 1)
	var compacted *xquec.Database
	go func() {
		var cerr error
		compacted, cerr = w.Compact(context.Background())
		done <- cerr
	}()

	var sb strings.Builder
	sb.WriteString(firstXML)
	for {
		it, ok, err := res.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		x, err := it.XML()
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString("\n")
		sb.WriteString(x)
	}
	if err := <-done; err != nil {
		t.Fatalf("compact: %v", err)
	}
	if got := sb.String(); got != want {
		t.Fatalf("mid-compaction stream corrupted:\n got %.200q\nwant %.200q", got, want)
	}
	// The old handle keeps answering from its snapshot...
	if got := execXML(t, db, q, xquec.QueryOptions{}); got != want {
		t.Fatal("old handle's snapshot changed after compaction")
	}
	// ...and the compacted handle answers identically with one segment.
	if compacted.Segments() != 1 {
		t.Fatalf("compacted Segments() = %d, want 1", compacted.Segments())
	}
	if got := execXML(t, compacted, q, xquec.QueryOptions{}); got != want {
		t.Fatal("compacted handle differs")
	}
	if compacted.TopologyKey() == db.TopologyKey() {
		t.Fatal("compaction did not roll the topology key")
	}
}

// TestWriterSaveOpenRoundTrip persists a segment set through a bound
// Writer and re-opens it through the sniffing Open (by extension and
// by content), asserting results and topology survive.
func TestWriterSaveOpenRoundTrip(t *testing.T) {
	docs := segDocs(t, 3, 0.02)
	base, err := xquec.Compress(docs[0], xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := xquec.NewWriter(base, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "auction.xqcg")
	w.BindFile(path)
	for _, doc := range docs[1:] {
		if err := w.Append(doc); err != nil {
			t.Fatal(err)
		}
	}
	db, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	const q = `FOR $i IN document("auction.xml")/site/regions/australia/item RETURN $i/name/text()`
	want := execXML(t, db, q, xquec.QueryOptions{})

	re, err := xquec.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Segmented() || re.Segments() != 3 {
		t.Fatalf("reopened: segmented=%v segments=%d", re.Segmented(), re.Segments())
	}
	if got := execXML(t, re, q, xquec.QueryOptions{}); got != want {
		t.Fatalf("round trip changed results:\n got %.200q\nwant %.200q", got, want)
	}
	if re.TopologyKey() == db.TopologyKey() {
		t.Fatal("distinct instances share a topology key")
	}
	suffix := func(k string) string { return k[strings.Index(k, ";"):] }
	if suffix(re.TopologyKey()) != suffix(db.TopologyKey()) {
		t.Fatalf("same layout, different topology: %q vs %q", re.TopologyKey(), db.TopologyKey())
	}

	// Content sniffing: a copy without the conventional extension still
	// opens as a segment set.
	alias := filepath.Join(dir, "alias.repo")
	data := readFileT(t, path)
	writeFileT(t, alias, data)
	// Segment files resolve relative to the manifest, so the alias must
	// live next to them (it does — same dir).
	re2, err := xquec.Open(alias)
	if err != nil {
		t.Fatal(err)
	}
	if !re2.Segmented() {
		t.Fatal("content sniffing missed a segment manifest")
	}

	// Appending K more documents to a reopened set keeps working.
	w2, err := xquec.NewWriter(re, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(docs[1]); err != nil {
		t.Fatal(err)
	}
	db4, err := w2.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if db4.Segments() != 4 {
		t.Fatalf("reopened+appended Segments() = %d, want 4", db4.Segments())
	}
}

// TestHostileManifests: a manifest names segment files; Open refuses,
// as ErrCorruptRepository and before reading any segment, one that
// names a file outside the manifest's directory — even one that exists —
// lists a segment twice, or gives a negative original size.
func TestHostileManifests(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m", "auction.xqcg")
	if err := os.Mkdir(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	db, err := xquec.Compress(datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 63}), xquec.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var valid partition.SegmentManifest
	if err := json.Unmarshal(readFileT(t, path), &valid); err != nil {
		t.Fatal(err)
	}
	first := valid.Segments[0]
	cases := []struct {
		name  string
		spoil func(m *partition.SegmentManifest)
	}{
		{"parent directory", func(m *partition.SegmentManifest) { m.Segments[0] = "../m/" + first }},
		{"subdirectory", func(m *partition.SegmentManifest) { m.Segments[0] = "./" + first }},
		{"absolute", func(m *partition.SegmentManifest) { m.Segments[0] = filepath.Join(filepath.Dir(path), first) }},
		{"dot", func(m *partition.SegmentManifest) { m.Segments[0] = "." }},
		{"dot dot", func(m *partition.SegmentManifest) { m.Segments[0] = ".." }},
		{"empty", func(m *partition.SegmentManifest) { m.Segments[0] = "" }},
		{"negative size", func(m *partition.SegmentManifest) { m.OriginalSizes[1] = -m.OriginalSizes[0] - 1 }},
		{"duplicate", func(m *partition.SegmentManifest) {
			m.Segments[1], m.DictHashes[1] = m.Segments[0], m.DictHashes[0]
		}},
	}
	for _, tc := range cases {
		m := valid
		m.Segments = slices.Clone(valid.Segments)
		m.DictHashes = slices.Clone(valid.DictHashes)
		m.OriginalSizes = slices.Clone(valid.OriginalSizes)
		tc.spoil(&m)
		data, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		hostile := filepath.Join(filepath.Dir(path), "hostile.xqcg")
		writeFileT(t, hostile, data)
		if _, err := xquec.Open(hostile); !errors.Is(err, xquec.ErrCorruptRepository) {
			t.Errorf("%s: Open = %v, want ErrCorruptRepository", tc.name, err)
		}
	}
}

// TestOpenManyMissingSegments: a manifest naming 64 segments that do not
// exist fails Open with the file system's typed error. (Open reads the
// segments on at most GOMAXPROCS workers, not one per listed segment;
// the test checks the error, not the worker count.)
func TestOpenManyMissingSegments(t *testing.T) {
	m := partition.SegmentManifest{Format: partition.SegmentManifestFormat, RootTag: "site", Generation: 1, Sequence: 64}
	for i := 0; i < 64; i++ {
		m.Segments = append(m.Segments, fmt.Sprintf("gone.seg-%06d.xqc", i))
		m.DictHashes = append(m.DictHashes, partition.DictionaryHash([]string{"site"}))
		m.OriginalSizes = append(m.OriginalSizes, 1)
	}
	data, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gone.xqcg")
	writeFileT(t, path, data)
	if _, err := xquec.Open(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open of 64 missing segments = %v, want fs.ErrNotExist", err)
	}
}

// TestSaveWithoutParts: a set keeps no segment's store, so SaveFile of
// an opened set to a new path copies each segment file byte for byte,
// and an appended segment not yet on disk is written from the bytes the
// set kept for it. A Save that fails loses none of them — neither one
// into a directory that cannot exist nor one whose manifest cannot be
// written after its segments were — and a second Save elsewhere reopens
// to the same answers.
func TestSaveWithoutParts(t *testing.T) {
	docs := segDocs(t, 2, 0.02)
	dir := t.TempDir()
	in := func(sub string) string {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		return filepath.Join(dir, sub, "auction.xqcg")
	}
	segments := func(path string) [][]byte {
		var m partition.SegmentManifest
		if err := json.Unmarshal(readFileT(t, path), &m); err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, name := range m.Segments {
			out = append(out, readFileT(t, filepath.Join(filepath.Dir(path), name)))
		}
		return out
	}
	cut, err := xquec.Compress(docs[0], xquec.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	first := in("a")
	if err := cut.SaveFile(first); err != nil {
		t.Fatal(err)
	}
	opened, err := xquec.Open(first)
	if err != nil {
		t.Fatal(err)
	}
	copied := in("b")
	if err := opened.SaveFile(copied); err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(segments(copied), segments(first), bytes.Equal) {
		t.Fatal("the segment files of a saved copy differ from those it was opened from")
	}

	w, err := xquec.NewWriter(opened, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(docs[1]); err != nil {
		t.Fatal(err)
	}
	grown, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	const q = `FOR $i IN /site/regions//item RETURN $i/name/text()`
	want := execXML(t, grown, q, xquec.QueryOptions{})
	writeFileT(t, filepath.Join(dir, "file"), nil)
	if err := grown.SaveFile(filepath.Join(dir, "file", "auction.xqcg")); err == nil {
		t.Fatal("a Save under a regular file succeeded")
	}
	blocked := in("c")
	if err := os.MkdirAll(filepath.Join(blocked, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := grown.SaveFile(blocked); err == nil {
		t.Fatal("a Save whose manifest path is a directory succeeded")
	}
	saved := in("d")
	if err := grown.SaveFile(saved); err != nil {
		t.Fatal(err)
	}
	re, err := xquec.Open(saved)
	if err != nil {
		t.Fatal(err)
	}
	if got := execXML(t, re, q, xquec.QueryOptions{}); re.Segments() != 4 || got != want {
		t.Fatalf("reopened %d segments answering %.100q, want 4 answering %.100q", re.Segments(), got, want)
	}
	files := segments(saved)
	if !slices.EqualFunc(files[:3], segments(first), bytes.Equal) {
		t.Fatal("the opened segments were not copied byte for byte")
	}
	total := 0
	for _, f := range files {
		total += len(f)
	}
	if st := re.Stats(); st.CompressedBytes != total || grown.Stats().CompressedBytes != total {
		t.Fatalf("compressed bytes: reopened %d, saved %d, segment files %d", st.CompressedBytes, grown.Stats().CompressedBytes, total)
	}
}

// TestOpenBytesManifestSniff covers the OpenBytes counterpart of Open's
// content sniffing: segment-set manifest bytes — of a set cut by
// Options.Shards or grown by appends — are recognized and rejected with
// the typed ErrCorruptRepository (a manifest references external files,
// it does not contain them), while real repository bytes keep loading.
func TestOpenBytesManifestSniff(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 60})
	dir := t.TempDir()

	// The manifest of a set cut by Options.Shards.
	cut, err := xquec.Compress(doc, xquec.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(dir, "s.xqcs")
	if err := cut.SaveFile(cutPath); err != nil {
		t.Fatal(err)
	}
	_, err = xquec.OpenBytes(readFileT(t, cutPath))
	if !errors.Is(err, xquec.ErrCorruptRepository) {
		t.Fatalf("OpenBytes(cut manifest) err = %v, want ErrCorruptRepository", err)
	}
	if !strings.Contains(fmt.Sprint(err), "segment-set manifest") {
		t.Fatalf("error does not explain the mismatch: %v", err)
	}

	// Segment-set manifest bytes.
	base, err := xquec.Compress(doc, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := xquec.NewWriter(base, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "g.xqcg")
	w.BindFile(segPath)
	if err := w.Append(datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 61})); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	_, err = xquec.OpenBytes(readFileT(t, segPath))
	if !errors.Is(err, xquec.ErrCorruptRepository) {
		t.Fatalf("OpenBytes(segment manifest) err = %v, want ErrCorruptRepository", err)
	}
	if !strings.Contains(fmt.Sprint(err), "segment-set manifest") {
		t.Fatalf("error does not explain the mismatch: %v", err)
	}

	// Real repository bytes still load.
	re, err := xquec.OpenBytes(base.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if re.Segmented() {
		t.Fatal("plain repository misclassified")
	}
}

// TestWriterValidation exercises the write-path guard rails: mismatched
// root tags, attribute-carrying appended roots and documents that are
// not XML.
func TestWriterValidation(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 62})
	db, err := xquec.Compress(doc, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := xquec.NewWriter(db, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte(`<other><a>1</a></other>`)); err == nil {
		t.Fatal("append with mismatched root tag accepted")
	}
	if err := w.Append([]byte(`<site id="2"><a>1</a></site>`)); err == nil {
		t.Fatal("append with attributed root accepted")
	}
	if err := w.Append([]byte(`not xml at all`)); err == nil {
		t.Fatal("append of non-XML accepted")
	}
	if w.Pending() != 0 {
		t.Fatalf("rejected documents staged: pending=%d", w.Pending())
	}
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFileT(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func execXML(t *testing.T, db *xquec.Database, q string, opts xquec.QueryOptions) string {
	t.Helper()
	res, err := db.Execute(context.Background(), q, opts)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	defer res.Close()
	out, err := xquec.ResultXML(res)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return out
}
