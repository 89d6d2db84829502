package algebra

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xquec/internal/storage"
)

// randomTree builds a random document and loads it.
func randomTree(t *testing.T, rng *rand.Rand) *storage.Store {
	t.Helper()
	var sb strings.Builder
	tags := []string{"a", "b", "c"}
	var gen func(depth int)
	gen = func(depth int) {
		tag := tags[rng.Intn(len(tags))]
		fmt.Fprintf(&sb, "<%s>", tag)
		if depth < 4 {
			for i := 0; i < rng.Intn(4); i++ {
				gen(depth + 1)
			}
		}
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&sb, "v%d", rng.Intn(10))
		}
		fmt.Fprintf(&sb, "</%s>", tag)
	}
	sb.WriteString("<root>")
	for i := 0; i < 3+rng.Intn(4); i++ {
		gen(0)
	}
	sb.WriteString("</root>")
	s, err := storage.Load([]byte(sb.String()), storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// naiveDescendants computes Descendants by brute force.
func naiveDescendants(s *storage.Store, in NodeSet, extent NodeSet) NodeSet {
	var out []storage.NodeID
	seen := map[storage.NodeID]bool{}
	for _, a := range in {
		for _, d := range extent {
			if isAncestor(s, a, d) && !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	return SortUnique(out)
}

func allElements(s *storage.Store, tag string) NodeSet {
	var out []storage.NodeID
	for id := storage.NodeID(1); int(id) <= s.NumNodes(); id++ {
		if s.TagOf(id) == tag {
			out = append(out, id)
		}
	}
	return out
}

func TestDescendantsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		s := randomTree(t, rng)
		as := allElements(s, "a")
		bs := allElements(s, "b")
		got := Descendants(s, as, bs)
		want := naiveDescendants(s, as, bs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

func TestSemiJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		s := randomTree(t, rng)
		as := allElements(s, "a")
		cs := allElements(s, "c")
		got := SemiJoinAncestor(s, as, cs)
		var want NodeSet
		for _, a := range as {
			for _, c := range cs {
				if isAncestor(s, a, c) {
					want = append(want, a)
					break
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d mismatch", trial)
			}
		}
	}
}

func TestMapToAncestorMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		s := randomTree(t, rng)
		// roots of the random forest under <root> never nest
		roots := children(s, NodeSet{1}, "")
		cs := allElements(s, "c")
		got := MapToAncestorIn(s, roots, cs)
		var want []Pair
		for _, c := range cs {
			for _, r := range roots {
				if isAncestor(s, r, c) {
					want = append(want, Pair{A: r, B: c})
					break
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %v vs %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d mismatch at %d", trial, i)
			}
		}
	}
}

func TestParentChildInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		s := randomTree(t, rng)
		for _, tag := range []string{"a", "b", "c"} {
			nodes := allElements(s, tag)
			kids := children(s, nodes, "")
			// every kid's parent is in nodes
			for _, p := range parents(s, kids) {
				if !slices.Contains(nodes, p) {
					t.Fatalf("parent %d not in input set", p)
				}
			}
		}
	}
}

// TestSeekFromAnyHint: seek from any hint equals the answer found from
// the front — a bisection of the whole extent — and leaves the hint
// there. Hints sit before, at and after the answer, far on either side
// of it, at both ends and out of range on both sides; extents are empty,
// one long, and of every length up to a few hundred with gaps of every
// width, and v runs from below the first ID to past the last.
func TestSeekFromAnyHint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 300; n += 1 + n/8 {
		extent := make(NodeSet, n)
		next := storage.NodeID(1 + rng.Intn(3))
		for i := range extent {
			extent[i] = next
			next += storage.NodeID(1 + rng.Intn(1+i%9))
		}
		for v := storage.NodeID(0); v <= next+1; v++ {
			want, _ := slices.BinarySearch(extent, v)
			hints := []int{-5, -1, 0, 1, want - 9, want - 2, want - 1, want, want + 1, want + 2, want + 17, n - 1, n, n + 1, n + 40, rng.Intn(n + 1)}
			for _, h := range hints {
				pos := h
				if got := seek(extent, &pos, v); got != want || pos != want {
					t.Fatalf("len %d: seek(v=%d) from hint %d = %d, hint left at %d; from the front %d", n, v, h, got, pos, want)
				}
			}
			if got := seek(extent, nil, v); got != want {
				t.Fatalf("len %d: seek(v=%d) without a hint = %d, want %d", n, v, got, want)
			}
		}
	}
}
