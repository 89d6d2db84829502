package algebra

import (
	"slices"
	"sort"

	"xquec/internal/storage"
)

// MapToAncestorIn maps each inner node to its (unique) ancestor-or-self
// inside the outer set, returning pairs; inner nodes with no covering
// outer node are dropped. Outer must be non-nesting (a path extent is).
// It is the navigational mapping the join index used before it placed
// owners by extent order (Nearest), kept as the oracle Nearest is held
// to: it asks the tree where every outer subtree ends.
func MapToAncestorIn(s *storage.Store, outer, inner NodeSet) []Pair {
	if len(inner) == 0 {
		return nil
	}
	// Outer nodes past the last inner node cannot cover any of them.
	hi := sort.Search(len(outer), func(k int) bool { return outer[k] > inner[len(inner)-1] })
	outer = outer[:hi]
	ends := make([]storage.NodeID, len(outer))
	s.SubtreeEndBulk(outer, ends)
	var out []Pair
	j := 0
	for _, d := range inner {
		for j < len(outer) && ends[j] < d {
			j++
		}
		if j < len(outer) && outer[j] <= d && d <= ends[j] {
			out = append(out, Pair{A: outer[j], B: d})
		}
	}
	return out
}

// children is the Child operator by brute force, for the tests that
// still need one: the children of in, restricted to one tag ("" = every
// element child, "@x" an attribute), off the parent of every node.
func children(s *storage.Store, in NodeSet, tag string) NodeSet {
	ids := make([]storage.NodeID, s.NumNodes())
	for i := range ids {
		ids[i] = storage.NodeID(i + 1)
	}
	parent := make([]storage.NodeID, len(ids))
	s.ParentBulk(ids, parent)
	var out NodeSet
	for i, id := range ids {
		if p := parent[i]; p != 0 && slices.Contains(in, p) && (s.TagOf(id) == tag || tag == "" && !s.IsAttr(id)) {
			out = append(out, id)
		}
	}
	return out
}

// isAncestor is the pre/post interval test a <= d <= end(a), the subtree
// end read by SubtreeEndBulk for a alone.
func isAncestor(s *storage.Store, a, d storage.NodeID) bool {
	end := make([]storage.NodeID, 1)
	s.SubtreeEndBulk([]storage.NodeID{a}, end)
	return a <= d && d <= end[0]
}

// parents is the Parent operator over the store's bulk kernel: the
// distinct parents of the input nodes, in document order.
func parents(s *storage.Store, in NodeSet) NodeSet {
	ids := make([]storage.NodeID, len(in))
	s.ParentBulk(in, ids)
	return SortUnique(slices.DeleteFunc(ids, func(p storage.NodeID) bool { return p == 0 }))
}

// HashJoinContainers joins two containers on value equality through a
// hash table of the smaller side's decoded values, probed with the larger
// side's. It is the container join the join index used before
// DecodedMergeJoin, kept as the oracle that one is held to.
func HashJoinContainers(a, b *storage.Container) ([]Pair, error) {
	swapped := false
	if b.Len() < a.Len() {
		a, b = b, a
		swapped = true
	}
	table := make(map[string][]storage.NodeID, a.Len())
	var buf []byte
	for i := 0; i < a.Len(); i++ {
		var err error
		if buf, err = a.Decode(buf[:0], i); err != nil {
			return nil, err
		}
		table[string(buf)] = append(table[string(buf)], a.Owner(i))
	}
	var out []Pair
	for j := 0; j < b.Len(); j++ {
		var err error
		if buf, err = b.Decode(buf[:0], j); err != nil {
			return nil, err
		}
		for _, owner := range table[string(buf)] {
			if swapped {
				out = append(out, Pair{A: b.Owner(j), B: owner})
			} else {
				out = append(out, Pair{A: owner, B: b.Owner(j)})
			}
		}
	}
	return out, nil
}
