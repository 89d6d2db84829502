// Benchmarks for the pull-based result path. Two properties are under
// guard here:
//
//   - BenchmarkFirstResult: time-to-first-item must stay flat as result
//     cardinality grows 10× — the defining property of pull-based
//     evaluation (an eager evaluator's first item costs O(n)).
//   - BenchmarkStreamLarge: the in-process twin of bench/'s stream_large
//     workload — serialization throughput (MB/s) and allocations per
//     request class, without the socket.
//
// Both run under `go test -run '^$' -bench 'BenchmarkFirstResult|BenchmarkStreamLarge' -benchmem .`.
package xquec

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
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

// streamLargeTexts mirrors bench/cmd/xquecload's stream_large requests:
// two wide results (every item as a constructed fragment, every person
// as a whole subtree) and Q2, Q17, Q19.
func streamLargeTexts() []xmarkq.Query {
	out := []xmarkq.Query{
		{ID: "items", Text: `FOR $i IN /site/regions//item RETURN <item name="{$i/name/text()}">{$i/description}</item>`},
		{ID: "persons", Text: `FOR $p IN /site/people/person RETURN $p`},
	}
	for _, q := range append(xmarkq.Queries(), xmarkq.ExtendedQueries()...) {
		switch q.ID {
		case "q2", "q17", "q19":
			out = append(out, q)
		}
	}
	return out
}

// BenchmarkStreamLarge runs each stream_large request the way the stream
// handler does: Next + AppendXML into one reused buffer. MB/s is over
// the serialized bytes; allocs/op divided by the item count (reported
// as items/op) is the per-item allocation figure EXPERIMENTS.md quotes;
// first-item-ms is the mean time from Execute to the first item — the
// in-process counterpart of the workload's first_byte_p50_ms.
func BenchmarkStreamLarge(b *testing.B) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 8, Seed: 1})
	db, err := Compress(doc, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range streamLargeTexts() {
		prep, err := db.Prepare(q.Text)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.ID, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			items, size := 0, 0
			var first time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				res, err := prep.Execute(context.Background(), QueryOptions{Parallelism: 1})
				if err != nil {
					b.Fatal(err)
				}
				items, size = 0, 0
				for {
					it, ok, err := res.Next()
					if err != nil {
						b.Fatal(err)
					}
					if items == 0 {
						first += time.Since(start)
					}
					if !ok {
						break
					}
					if buf, err = it.AppendXML(buf[:0]); err != nil {
						b.Fatal(err)
					}
					items++
					size += len(buf)
				}
				res.Close()
			}
			b.SetBytes(int64(size))
			b.ReportMetric(float64(items), "items/op")
			b.ReportMetric(float64(first.Microseconds())/1e3/float64(b.N), "first-item-ms")
		})
	}
}
