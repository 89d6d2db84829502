package algebra

import (
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
