package xquec_test

import (
	"context"
	"fmt"
	"testing"

	"xquec"
	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
)

// buildMatrixDB builds one cell of the differential topology matrix: a
// base compressed at the given shard count, grown to the given segment
// count through the Writer.
func buildMatrixDB(t *testing.T, docs [][]byte, shards int) *xquec.Database {
	t.Helper()
	base, err := xquec.Compress(docs[0], xquec.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 1 {
		return base
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
	return db
}

// TestSuccinctDifferentialMatrix is the tier-1 gate of the succinct
// structure backend: every benchmark query, over every topology in
// shards {1,2,4} x segments {1,2} x parallelism {1,4}, must return
// byte-identical results whether the balanced-parentheses self-index
// or the record-array oracle (XQUEC_STRUCT=records) is resident.
func TestSuccinctDifferentialMatrix(t *testing.T) {
	docs := [][]byte{
		datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 61}),
		datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 62}),
	}
	queries := append(xmarkq.Queries(), xmarkq.ExtendedQueries()...)
	want := map[string]string{}

	run := func(record bool) {
		for _, shards := range []int{1, 2, 4} {
			for _, segs := range []int{1, 2} {
				if shards > 1 && segs > 1 {
					continue // a sharded database is not appendable
				}
				db := buildMatrixDB(t, docs[:segs], shards)
				for _, par := range []int{1, 4} {
					for _, q := range queries {
						k := fmt.Sprintf("sh=%d/seg=%d/p=%d/%s", shards, segs, par, q.ID)
						res, err := db.Execute(context.Background(), q.Text,
							xquec.QueryOptions{Parallelism: par})
						if err != nil {
							t.Fatalf("%s: %v", k, err)
						}
						got, err := xquec.ResultXML(res)
						res.Close()
						if err != nil {
							t.Fatalf("%s: %v", k, err)
						}
						if record {
							want[k] = got
						} else if got != want[k] {
							t.Errorf("%s: succinct result differs from records oracle\n got: %.200q\nwant: %.200q",
								k, got, want[k])
						}
					}
				}
			}
		}
	}

	t.Setenv("XQUEC_STRUCT", "records")
	run(true)
	t.Setenv("XQUEC_STRUCT", "")
	run(false)
}
