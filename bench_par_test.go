package xquec

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/experiments"
)

// parBenchDB lazily builds one XMark repository shared by all the
// intra-query parallelism benchmarks (compression is the expensive
// part, not the queries under test).
var parBenchDB = struct {
	once sync.Once
	db   *Database
	err  error
}{}

func parBenchRepo(b *testing.B) *Database {
	b.Helper()
	parBenchDB.once.Do(func() {
		doc := datagen.XMark(datagen.XMarkConfig{Scale: 4 * benchScale, Seed: experiments.Seed})
		parBenchDB.db, parBenchDB.err = Compress(doc, Options{})
	})
	if parBenchDB.err != nil {
		b.Fatal(parBenchDB.err)
	}
	return parBenchDB.db
}

func runParQuery(b *testing.B, db *Database, q string) {
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := db.Execute(context.Background(), q, QueryOptions{Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
				for {
					_, ok, err := res.Next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
				}
				res.Close()
			}
		})
	}
}

// BenchmarkParQueryPredicateScan drives the partitioned ContFilter: the
// != predicate has no compressed-domain operator, so every person name
// is decoded and tested; the record range splits across the workers.
// Every person has a name, so the container fully covers the path and
// the fast path applies. On a single-core host the p>1 rows measure
// coordination overhead; the speedup needs real cores.
func BenchmarkParQueryPredicateScan(b *testing.B) {
	db := parBenchRepo(b)
	runParQuery(b, db,
		`count(/site/people/person[name != "-"])`)
}

// BenchmarkParQueryMultiContainer drives the matchOwners container
// fan-out: //item name containers exist per region, so one predicate
// spans six containers scanned concurrently.
func BenchmarkParQueryMultiContainer(b *testing.B) {
	db := parBenchRepo(b)
	runParQuery(b, db,
		`count(/site/regions//item[name != "-"])`)
}
