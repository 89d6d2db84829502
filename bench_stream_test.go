// Benchmarks for the pull-based result path. Two properties are under
// guard here:
//
//   - BenchmarkFirstResult: time-to-first-item must stay flat as result
//     cardinality grows 10× — the defining property of pull-based
//     evaluation (an eager evaluator's first item costs O(n)).
//   - BenchmarkWriteXML: streaming serialization must hold per-item
//     allocation behavior instead of materializing the full rendering.
//
// `make bench` appends both to BENCH_query.json via cmd/benchjson.
package xquec

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
)

// benchStreamDB builds an n-item repository for the streaming query
// `FOR $i IN /d/i RETURN $i/v/text()`.
func benchStreamDB(b *testing.B, n int) *Database {
	b.Helper()
	var sb strings.Builder
	sb.WriteString("<d>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<i><v>value-%06d</v></i>", i)
	}
	sb.WriteString("</d>")
	db, err := Compress([]byte(sb.String()), Options{})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkFirstResult measures query-to-first-item latency at growing
// result cardinality. The 10×-apart sizes must report ~equal ns/op:
// the first item's cost is per-item work plus constant setup, never a
// function of how many items the query would produce.
func BenchmarkFirstResult(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		db := benchStreamDB(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := db.Execute(context.Background(), streamQuery, QueryOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if _, ok, err := res.Next(); !ok || err != nil {
					b.Fatalf("first item: ok=%v err=%v", ok, err)
				}
				res.Close()
			}
		})
	}
}

// BenchmarkWriteXML streams the full result to a writer through the
// reusable per-item buffer.
func BenchmarkWriteXML(b *testing.B) {
	db := benchStreamDB(b, 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := db.Execute(context.Background(), streamQuery, QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.WriteXML(io.Discard); err != nil {
			b.Fatal(err)
		}
		res.Close()
	}
}
