package xquec

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
)

// TestCompactEqualsReingest pins what a compaction builds without XML:
// the repository a re-ingest of the serialized corpus builds under the
// Writer's Options — plan search included — byte for byte, the stored
// original size aside (it stays the bytes ingested), for the default
// options, a workload and an explicit plan, at one and two workers
// (GOMAXPROCS).
func TestCompactEqualsReingest(t *testing.T) {
	var texts []string
	for _, q := range xmarkq.Queries() {
		texts = append(texts, q.Text)
	}
	base := datagen.XMark(datagen.XMarkConfig{Scale: 0.25, Seed: 11})
	grid := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"workload", Options{WorkloadQueries: texts}},
		{"hutucker", Options{Plan: &CompressionPlan{DefaultAlgorithm: storage.AlgHuTucker}}},
	}
	for _, cell := range grid {
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/p=%d", cell.name, par), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
				opts := cell.opts
				grown, compacted, err := appendCompact(base, appendFrags(), opts)
				if err != nil {
					t.Fatal(err)
				}
				xml, err := grown.Decompress()
				if err != nil {
					t.Fatal(err)
				}
				vals, err := storage.Parse(xml, nil)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := opts.plan(vals, searchSeed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := vals.Store(plan)
				if err != nil {
					t.Fatal(err)
				}
				want.OriginalSize = grown.set.OriginalSize()
				if got := compacted.Bytes(); !bytes.Equal(got, want.AppendBinary(nil)) {
					t.Fatalf("compacted repository (%d bytes) differs from the re-ingest (%d bytes)", len(got), len(want.AppendBinary(nil)))
				}
				if compacted.Segments() != 1 {
					t.Fatalf("compacted into %d segments", compacted.Segments())
				}
			})
		}
	}
}

// TestCompactKeepsOriginalBytes: compaction adds no document, so the
// bytes ingested — the compression factor's denominator — stay as they
// were, whatever the serializer's whitespace would count.
func TestCompactKeepsOriginalBytes(t *testing.T) {
	base := datagen.XMark(datagen.XMarkConfig{Scale: 0.25, Seed: 11})
	frags := appendFrags()
	grown, compacted, err := appendCompact(base, frags, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := len(base)
	for _, f := range frags {
		want += len(f)
	}
	if got := grown.Stats().OriginalBytes; got != want {
		t.Fatalf("grown OriginalBytes = %d, want %d (the bytes appended)", got, want)
	}
	if got := compacted.Stats().OriginalBytes; got != want {
		t.Fatalf("compacted OriginalBytes = %d, want %d: compaction moved it", got, want)
	}
}

// BenchmarkCompact measures one Writer.Compact of the append_mixed
// shape — a scale-2 base and four 0.016 fragments, one segment each —
// fusion, decode, retraining, re-encoding and the proof of the result:
// ms/op and allocs/op. The set is grown again, untimed, before each
// compaction, so no iteration finds it fused.
func BenchmarkCompact(b *testing.B) {
	db, err := Compress(datagen.XMark(datagen.XMarkConfig{Scale: 2, Seed: 1}), Options{})
	if err != nil {
		b.Fatal(err)
	}
	var frags [][]byte
	for k := 0; k < 4; k++ {
		frags = append(frags, datagen.XMark(datagen.XMarkConfig{Scale: fuseFragScale, Seed: int64(100 + k)}))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := NewWriter(db, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range frags {
			if err := w.Append(f); err != nil {
				b.Fatal(err)
			}
			if _, err := w.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := w.Compact(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
