package algebra

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xquec/internal/storage"
)

// TestDecodedMergeJoinMatchesHashJoin holds the merge of decoded values to
// the hash join over random containers: values drawn with repeats on both
// sides, string sides under each string codec, typed (int) sides, a typed
// side against a string one, and an empty side.
func TestDecodedMergeJoinMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	// A string side holds the same numerals as a typed one, and one
	// value that is no number, which keeps it a string container: the
	// numerals' byte order is not their value order.
	value := func(pool int) string { return fmt.Sprint(rng.Intn(pool) * 7) }
	sorted := func(ps []Pair) []Pair {
		return slices.SortedFunc(slices.Values(ps), func(x, y Pair) int {
			return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
		})
	}
	matched := 0
	for round := 0; round < 60; round++ {
		alg := []string{storage.AlgALM, storage.AlgHuTucker, storage.AlgHuffman}[round%3]
		typedA, typedB := round%4 == 1 || round%4 == 3, round%4 >= 2
		pool := 2 + rng.Intn(12)
		var doc strings.Builder
		doc.WriteString("<r>")
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			fmt.Fprintf(&doc, `<a v="%s"/>`, value(pool))
		}
		if !typedA {
			doc.WriteString(`<a v="x"/>`)
		}
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			fmt.Fprintf(&doc, `<b w="%s"/>`, value(pool))
		}
		if !typedB {
			doc.WriteString(`<b w="x"/>`)
		}
		doc.WriteString("</r>")
		s, err := storage.Load([]byte(doc.String()), storage.LoadOptions{Plan: &storage.CompressionPlan{DefaultAlgorithm: alg}})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := s.ContainerByPath("/r/a/@v")
		b, _ := s.ContainerByPath("/r/b/@w")
		if a == nil || b == nil {
			t.Fatalf("round %d: containers missing", round)
		}
		if typedA != (a.Kind != storage.KindString) || typedB != (b.Kind != storage.KindString) {
			t.Fatalf("round %d: kinds %v, %v", round, a.Kind, b.Kind)
		}
		for _, pair := range [][2]*storage.Container{{a, b}, {b, a}, {a, a}, {a, &storage.Container{}}, {&storage.Container{}, b}} {
			got, err := DecodedMergeJoin(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			want, err := HashJoinContainers(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			matched += len(got)
			if !slices.Equal(sorted(got), sorted(want)) {
				t.Fatalf("round %d (%s, typed %v/%v): merge %v, hash %v\n%s", round, alg, typedA, typedB, got, want, doc.String())
			}
		}
	}
	if matched == 0 {
		t.Fatal("no round joined a pair")
	}
}
