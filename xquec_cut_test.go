package xquec_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"xquec"
	"xquec/internal/datagen"
	"xquec/internal/partition"
	"xquec/internal/xmarkq"
)

// TestCutResultsIdentical is the tier-1 guarantee of Options.Shards: for
// EVERY benchmark query a database cut into a segment set returns
// byte-identical results to the single-repository database over the
// same corpus, at every part count.
func TestCutResultsIdentical(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 41})
	single, err := xquec.Compress(doc, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := append(xmarkq.Queries(), xmarkq.ExtendedQueries()...)
	want := map[string]string{}
	for _, q := range queries {
		res, err := single.Execute(context.Background(), q.Text, xquec.QueryOptions{})
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		want[q.ID], err = xquec.ResultXML(res)
		res.Close()
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
	}
	for _, n := range []int{1, 2, 4, 8} {
		db, err := xquec.Compress(doc, xquec.Options{Shards: n})
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		for _, q := range queries {
			res, err := db.Execute(context.Background(), q.Text, xquec.QueryOptions{})
			if err != nil {
				t.Fatalf("shards=%d %s: %v", n, q.ID, err)
			}
			got, err := xquec.ResultXML(res)
			res.Close()
			if err != nil {
				t.Fatalf("shards=%d %s: %v", n, q.ID, err)
			}
			if got != want[q.ID] {
				t.Errorf("shards=%d %s: result on the cut differs\n got: %.200q\nwant: %.200q",
					n, q.ID, got, want[q.ID])
			}
		}
	}
}

// TestCutSegments: Options.Shards cuts a segment set of min(n, root
// children) segments, whatever the shape of the root's content, and the
// segments' original sizes sum to the document's.
func TestCutSegments(t *testing.T) {
	docs := []struct {
		name     string
		doc      []byte
		children int
	}{
		{"xmark", datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 47}), 5},
		{"flat", []byte(`<r><n>1</n><n>2</n><n>3</n><n>4</n><n>5</n></r>`), 5},
		{"attributes and text", []byte(`<r k="v">lead<a/>mid<b x="1">t</b>tail</r>`), 2},
		{"one child", []byte(`<r><a><b/><b/><b/></a></r>`), 1},
	}
	for _, d := range docs {
		for _, n := range []int{2, 3, 4, 8} {
			db, err := xquec.Compress(d.doc, xquec.Options{Shards: n})
			if err != nil {
				t.Fatalf("%s n=%d: %v", d.name, n, err)
			}
			if got, want := db.Segments(), min(n, d.children); got != want || !db.Segmented() {
				t.Errorf("%s n=%d: %d segments, want %d", d.name, n, got, want)
			}
			if got := db.Stats().OriginalBytes; got != len(d.doc) {
				t.Errorf("%s n=%d: %d original bytes, want %d", d.name, n, got, len(d.doc))
			}
		}
	}
}

// TestCutIsAppendable: a database cut by Options.Shards is a segment set
// like any other — NewWriter accepts it, and what Append, Commit and
// Compact publish answers every benchmark query and decompresses as the
// re-ingest of the concatenated corpus does.
func TestCutIsAppendable(t *testing.T) {
	docs := segDocs(t, 3, 0.02)
	concat, err := partition.Concat(docs...)
	if err != nil {
		t.Fatal(err)
	}
	single, err := xquec.Compress(concat, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := xquec.Compress(docs[0], xquec.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	w, err := xquec.NewWriter(cut, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[1:] {
		if err := w.Append(doc); err != nil {
			t.Fatal(err)
		}
	}
	grown, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := w.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if grown.Segments() != 6 || compacted.Segments() != 1 {
		t.Fatalf("%d segments grown, %d compacted; want 6 and 1", grown.Segments(), compacted.Segments())
	}
	want, err := single.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	for layout, db := range map[string]*xquec.Database{"grown": grown, "compacted": compacted} {
		if got := db.Stats().OriginalBytes; got != len(docs[0])+len(docs[1])+len(docs[2]) {
			t.Errorf("%s: %d original bytes, want the %d ingested", layout, got, len(docs[0])+len(docs[1])+len(docs[2]))
		}
		if got, err := db.Decompress(); err != nil || string(got) != string(want) {
			t.Errorf("%s: decompresses to %d bytes (%v), the re-ingest to %d", layout, len(got), err, len(want))
		}
		for _, q := range append(xmarkq.Queries(), xmarkq.ExtendedQueries()...) {
			if got, want := execXML(t, db, q.Text), execXML(t, single, q.Text); got != want {
				t.Errorf("%s %s: differs from the re-ingest\n got: %.200q\nwant: %.200q", layout, q.ID, got, want)
			}
		}
	}
}

// TestOpenRefusesRetiredShardSet: a manifest of the retired
// round-robin shard layout (format xqcs1), written by hand, is a corrupt
// repository to Open, and the error names the format.
func TestOpenRefusesRetiredShardSet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.xqcs")
	manifest := `{"format":"xqcs1","shards":["old.shard-000.xqc","old.shard-001.xqc"],"partition_level":3,` +
		`"routing":"roundrobin","subtrees":2,"subtree_counts":[1,1],"dict_hash":"00","original_size":10}`
	writeFileT(t, path, []byte(manifest))
	_, err := xquec.Open(path)
	if !errors.Is(err, xquec.ErrCorruptRepository) || !strings.Contains(err.Error(), `"xqcs1"`) || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("Open = %v, want an ErrCorruptRepository naming the retired format", err)
	}
}

// TestShardedItemCursor exercises the Next/Item path (not just
// WriteXML) against a query on a database cut by Options.Shards,
// including early Close.
func TestShardedItemCursor(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 42})
	db, err := xquec.Compress(doc, xquec.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	single, err := xquec.Compress(doc, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const q = `FOR $p IN document("auction.xml")/site/people/person RETURN $p/name/text()`
	wantRes, err := single.Execute(context.Background(), q, xquec.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wantRes.Close()
	res, err := db.Execute(context.Background(), q, xquec.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	n := 0
	for {
		wi, wok, werr := wantRes.Next()
		gi, gok, gerr := res.Next()
		if werr != nil || gerr != nil {
			t.Fatalf("item %d: errs %v / %v", n, werr, gerr)
		}
		if wok != gok {
			t.Fatalf("item %d: ok %v vs %v", n, wok, gok)
		}
		if !wok {
			break
		}
		wx, _ := wi.XML()
		gx, _ := gi.XML()
		if wx != gx {
			t.Fatalf("item %d: %q vs %q", n, gx, wx)
		}
		n++
	}
	if n == 0 {
		t.Fatal("query returned nothing")
	}

	// Early close mid-stream must not deadlock or error later cursors.
	res2, err := db.Execute(context.Background(), q, xquec.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := res2.Next(); !ok || err != nil {
		t.Fatalf("first item: ok=%v err=%v", ok, err)
	}
	if err := res2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSaveOpenRoundTrip persists a database cut by Options.Shards
// under the ".xqcs" name and re-opens it through the sniffing Open,
// asserting results, segments and sizes survive the round trip.
func TestShardedSaveOpenRoundTrip(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 43})
	db, err := xquec.Compress(doc, xquec.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	const q = `FOR $i IN document("auction.xml")/site/regions/australia/item RETURN $i/name/text()`
	want := execXML(t, db, q)

	dir := t.TempDir()
	path := filepath.Join(dir, "auction.xqcs")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	re, err := xquec.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Segmented() || re.Segments() != 3 || re.Stats().OriginalBytes != len(doc) {
		t.Fatalf("reopened: %d segments of %d bytes, want 3 of %d", re.Segments(), re.Stats().OriginalBytes, len(doc))
	}
	if got := execXML(t, re, q); got != want {
		t.Fatalf("round trip changed results:\n got %.200q\nwant %.200q", got, want)
	}
	if re.TopologyKey() == db.TopologyKey() {
		t.Fatal("distinct instances share a topology key")
	}
	// Both keys must agree on the topology part (after the instance id).
	suffix := func(k string) string { return k[strings.Index(k, ";"):] }
	if suffix(re.TopologyKey()) != suffix(db.TopologyKey()) {
		t.Fatalf("same layout, different topology: %q vs %q", re.TopologyKey(), db.TopologyKey())
	}
}

// TestShardedDecompress asserts the fused reconstruction round-trips
// through a database cut by Options.Shards.
func TestShardedDecompress(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 44})
	single, err := xquec.Compress(doc, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := xquec.Compress(doc, xquec.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	// Reconstructions may differ in empty-element form; compare through
	// a re-ingest of each, which canonicalizes serialization.
	cw, err := xquec.Compress(want, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := xquec.Compress(got, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := cw.Decompress()
	g2, _ := cg.Decompress()
	if string(w2) != string(g2) {
		t.Fatalf("fused reconstruction differs (%d vs %d bytes)", len(g2), len(w2))
	}
}

// TestShardedDeadline proves per-request deadlines cut through an
// evaluation on a database cut by Options.Shards: an already-expired
// context fails the query with the context's error.
func TestShardedDeadline(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 45})
	db, err := xquec.Compress(doc, xquec.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	const q = `FOR $p IN document("auction.xml")/site/people/person RETURN $p/name/text()`
	res, err := db.Execute(ctx, q, xquec.QueryOptions{})
	if err == nil {
		// The deadline may surface on the first Next instead of at
		// prime time depending on scheduling; drain to find it.
		_, err = xquec.ResultXML(res)
		res.Close()
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestFailureParityAcrossLayouts: a query that fails on one person of
// the corpus fails identically — ErrEval, the same message — on the
// single repository and on 4 append segments, which run it on their
// fused store. No layout answers with the other persons' items.
func TestFailureParityAcrossLayouts(t *testing.T) {
	const q = `FOR $p IN /site/people/person RETURN 10 mod number($p/q)`
	person := func(i int) string {
		d := i + 1
		if i == 25 {
			d = 0
		}
		return fmt.Sprintf(`<person id="person%d"><q>%d</q></person>`, i, d)
	}
	people := func(from, to int) string {
		var sb strings.Builder
		for i := from; i < to; i++ {
			sb.WriteString(person(i))
		}
		return "<site><people>" + sb.String() + "</people></site>"
	}
	run := func(db *xquec.Database, opts xquec.QueryOptions) error {
		res, err := db.Execute(context.Background(), q, opts)
		if err != nil {
			return err
		}
		defer res.Close()
		_, err = xquec.ResultXML(res)
		return err
	}

	single, err := xquec.Compress([]byte(people(0, 40)), xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := run(single, xquec.QueryOptions{})
	if !errors.Is(want, xquec.ErrEval) || !strings.Contains(want.Error(), "mod") {
		t.Fatalf("single repository: err = %v, want an ErrEval on 10 mod 0", want)
	}
	check := func(layout string, db *xquec.Database) {
		t.Helper()
		if plan, err := db.Explain(q); err != nil || !strings.HasPrefix(plan, "evaluate on the fused store of 4 ") {
			t.Fatalf("%s: the query does not run fused (err %v):\n%s", layout, err, plan)
		}
		got := run(db, xquec.QueryOptions{})
		if !errors.Is(got, xquec.ErrEval) || got.Error() != want.Error() {
			t.Fatalf("%s: err = %v, want %v", layout, got, want)
		}
	}

	base, err := xquec.Compress([]byte(people(0, 10)), xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := xquec.NewWriter(base, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for from := 10; from < 40; from += 10 {
		if err := w.Append([]byte(people(from, from+10))); err != nil {
			t.Fatal(err)
		}
	}
	segments, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	check("4 segments", segments)
}

// TestSetCancelMidDrain cancels the context of a query on a 4-segment
// set after its first items: the next Next, and every call after it,
// ends with the context's error.
func TestSetCancelMidDrain(t *testing.T) {
	docs := segDocs(t, 4, 0.02)
	const q = `FOR $p IN /site/people/person RETURN $p/name/text()`
	ctx, cancel := context.WithCancel(context.Background())
	res, err := segmentedDB(t, docs).Execute(ctx, q, xquec.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	for i := 0; i < 3; i++ {
		if _, ok, err := res.Next(); !ok || err != nil {
			t.Fatalf("item %d: ok=%v err=%v", i, ok, err)
		}
	}
	cancel()
	if _, ok, err := res.Next(); ok || !errors.Is(err, ctx.Err()) {
		t.Fatalf("Next after cancel = ok=%v err=%v, want %v", ok, err, ctx.Err())
	}
	if _, err := xquec.ResultXML(res); !errors.Is(err, ctx.Err()) {
		t.Fatalf("drain after cancel = %v, want %v", err, ctx.Err())
	}
}

// TestCutHeapMatchesSingle: a segment set holds one store, the fusion of
// its segments, so a 4-part cut opened from disk holds, warm, the heap of
// the single repository of the same corpus, within 10 %. Heap is
// HeapAlloc after two collections, before the open and after one pass of
// the XMark queries.
func TestCutHeapMatchesSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-1 ingest")
	}
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 1, Seed: 1})
	dir := t.TempDir()
	single, cut := filepath.Join(dir, "single.xqc"), filepath.Join(dir, "cut.xqcg")
	for path, opts := range map[string]xquec.Options{single: {}, cut: {Shards: 4}} {
		db, err := xquec.Compress(doc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SaveFile(path); err != nil {
			t.Fatal(err)
		}
	}
	heapAlloc := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	warmHeap := func(path string) int64 {
		before := heapAlloc()
		db, err := xquec.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range xmarkq.Queries() {
			res, err := db.Execute(context.Background(), q.Text, xquec.QueryOptions{})
			if err == nil {
				_, err = res.WriteXML(io.Discard)
				res.Close()
			}
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
		}
		heap := heapAlloc() - before
		runtime.KeepAlive(db)
		return heap
	}
	one, four := warmHeap(single), warmHeap(cut)
	ratio := float64(four) / float64(one)
	t.Logf("warm heap per document byte: single %.3f, 4-part cut %.3f (ratio %.3f)",
		float64(one)/float64(len(doc)), float64(four)/float64(len(doc)), ratio)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("a 4-part cut holds %.2f× the warm heap of the single repository, want within 10 %%", ratio)
	}
}
