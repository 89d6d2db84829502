package engine

import (
	"math/rand"
	"runtime"
	"testing"

	"xquec/internal/algebra"
	"xquec/internal/datagen"
	"xquec/internal/storage"
)

// TestParallelDifferential runs the whole query battery on random
// documents at several worker budgets and requires byte-identical
// output (and identical error outcomes) against the serial engine.
// The partition floor is dropped so the small random documents
// genuinely split.
func TestParallelDifferential(t *testing.T) {
	old := algebra.MinRecordsPerPartition
	algebra.MinRecordsPerPartition = 2
	t.Cleanup(func() { algebra.MinRecordsPerPartition = old })

	pars := []int{2, 4, 8, runtime.GOMAXPROCS(0)}
	plans := []*storage.CompressionPlan{
		nil,
		{DefaultAlgorithm: storage.AlgHuffman},
	}
	rng := rand.New(rand.NewSource(4))
	trials := 15
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		doc := datagen.RandomRecords(rng)
		s, err := storage.Load(doc, storage.LoadOptions{Plan: plans[trial%len(plans)]})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		serial := New(s)
		for qi, q := range queryBattery {
			want, werr := serial.Query(q)
			var ws string
			if werr == nil {
				if ws, err = want.SerializeXML(); err != nil {
					t.Fatal(err)
				}
			}
			for _, par := range pars {
				got, gerr := New(s).WithParallelism(par).Query(q)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("trial %d query %d par %d error mismatch: parallel=%v serial=%v\nquery: %s",
						trial, qi, par, gerr, werr, q)
				}
				if gerr != nil {
					continue
				}
				gs, err := got.SerializeXML()
				if err != nil {
					t.Fatal(err)
				}
				if gs != ws {
					t.Fatalf("trial %d query %d par %d differs\nquery: %s\nparallel: %q\nserial:   %q\ndoc: %s",
						trial, qi, par, q, gs, ws, doc)
				}
			}
		}
	}
}
