package engine_test

import (
	"math/rand"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/storage"
)

// TestRandomDifferentialAfterReload repeats a slice of the battery on a
// repository that went through serialize + reload.
func TestRandomDifferentialAfterReload(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		doc := datagen.RandomRecords(rng)
		s, err := storage.Load(doc, storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s2, err := storage.LoadBinary(s.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range datagen.RecordQueries()[:10] {
			r1, err1 := query(s, q)
			r2, err2 := query(s2, q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("reload error mismatch on %s: %v vs %v", q, err1, err2)
			}
			if r1 != r2 {
				t.Fatalf("reload result mismatch on %s", q)
			}
		}
	}
}
