// BenchmarkXMarkMix is the in-process twin of bench/'s xmark_mix
// workload: the same 15 query texts at the same scale, one
// sub-benchmark per text, each Prepared once and then Executed and
// serialized per iteration — the engine share of that workload without
// the socket.
package xquec

import (
	"context"
	"io"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
)

// xmarkMixTexts mirrors bench/cmd/xquecload's xmarkTexts: the Fig. 7
// set and the extended queries minus the quadratic Q11, plus one
// Q1-shaped point lookup.
func xmarkMixTexts() []xmarkq.Query {
	var out []xmarkq.Query
	for _, q := range append(xmarkq.Queries(), xmarkq.ExtendedQueries()...) {
		if q.ID != "q11" {
			out = append(out, q)
		}
	}
	return append(out, xmarkq.Query{ID: "q1k", Text: `FOR $b IN /site/people/person[@id = "person17"] RETURN $b/name/text()`})
}

func BenchmarkXMarkMix(b *testing.B) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 8, Seed: 1})
	db, err := Compress(doc, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range xmarkMixTexts() {
		prep, err := db.Prepare(q.Text)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := prep.Execute(context.Background(), QueryOptions{Parallelism: 1})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := res.WriteXML(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
