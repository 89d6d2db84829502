// BenchmarkPointLookup is the in-process twin of bench/'s point_literal
// workload, with the one property that workload cannot show while it
// draws ids from the first thousand: the cost of a lookup must not depend
// on where in the document the id sits. TestPointLookupFlat guards it.
package xquec

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"xquec/internal/datagen"
)

// pointLookups returns bench/cmd/xquecload's two lookup texts for the
// first, the middle and the last id of either kind in db.
func pointLookups(t testing.TB, db *Database) map[string]map[string]string {
	t.Helper()
	count := func(q string) int {
		res, err := db.Execute(context.Background(), q, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if _, err := res.WriteXML(&out); err != nil {
			t.Fatal(err)
		}
		var n int
		if _, err := fmt.Sscan(out.String(), &n); err != nil || n < 3 {
			t.Fatalf("%s = %q (%v)", q, out.String(), err)
		}
		return n
	}
	persons, items := count(`count(/site/people/person)`), count(`count(/site/regions//item)`)
	at := func(format string, n int) map[string]string {
		return map[string]string{
			"first": fmt.Sprintf(format, 0),
			"mid":   fmt.Sprintf(format, n/2),
			"last":  fmt.Sprintf(format, n-1),
		}
	}
	return map[string]map[string]string{
		"person": at(`/site/people/person[@id="person%d"]/name/text()`, persons),
		"item":   at(`/site/regions//item[@id="item%d"]/name/text()`, items),
	}
}

func pointDB(t testing.TB) *Database {
	t.Helper()
	db, err := Compress(datagen.XMark(datagen.XMarkConfig{Scale: 8, Seed: 1}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func BenchmarkPointLookup(b *testing.B) {
	db := pointDB(b)
	lookups := pointLookups(b, db)
	for _, kind := range []string{"person", "item"} {
		for _, where := range []string{"first", "mid", "last"} {
			prep, err := db.Prepare(lookups[kind][where])
			if err != nil {
				b.Fatal(err)
			}
			b.Run(kind+"/"+where, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := prep.Execute(context.Background(), QueryOptions{})
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
}

// TestPointLookupFlat: looking up the last person or item costs less than
// ten times the first one. When the owner of the matching @id was placed
// under its binding by walking the candidates before it, the last id cost
// some hundreds of times the first; the bound is loose enough for a busy
// host and still two orders of magnitude from that.
func TestPointLookupFlat(t *testing.T) {
	db := pointDB(t)
	for kind, texts := range pointLookups(t, db) {
		cost := map[string]time.Duration{}
		for where, q := range texts {
			prep, err := db.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			best := time.Duration(1 << 62)
			for round := 0; round < 5; round++ {
				const reps = 200
				start := time.Now()
				for i := 0; i < reps; i++ {
					res, err := prep.Execute(context.Background(), QueryOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if n, err := res.WriteXML(io.Discard); err != nil || n == 0 {
						t.Fatalf("%s: %d bytes (%v)", q, n, err)
					}
				}
				best = min(best, time.Since(start)/reps)
			}
			cost[where] = best
		}
		t.Logf("%s: first %v, mid %v, last %v", kind, cost["first"], cost["mid"], cost["last"])
		if cost["last"] >= 10*cost["first"] {
			t.Errorf("%s lookup is not flat: last id %v, first id %v", kind, cost["last"], cost["first"])
		}
	}
}
