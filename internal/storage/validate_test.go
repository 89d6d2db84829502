package storage

import "fmt"

// Validate checks the structural invariants of the repository, node by
// node on the accessor surface. It is the slow oracle: LoadBinary proves the same
// properties while it derives the structure (see deriveFromSuccinct),
// and the corruption suite holds the two to the same verdict.
func (s *Store) Validate() error {
	nNodes := s.NumNodes()
	if nNodes == 0 {
		return fmt.Errorf("storage: empty structure tree")
	}
	parent, end, _ := shape(s)
	for i := 0; i < nNodes; i++ {
		id := NodeID(i + 1)
		if int(s.TagCodeOf(id)) >= len(s.Names) {
			return fmt.Errorf("storage: node %d has out-of-range tag %d", id, s.TagCodeOf(id))
		}
		p, e := parent[i], end[i]
		if p >= id {
			return fmt.Errorf("storage: node %d has non-preceding parent %d", id, p)
		}
		if e < id || int(e) > nNodes {
			return fmt.Errorf("storage: node %d has bad subtree end %d", id, e)
		}
		// The two sweeps must agree: a node and its whole subtree lie
		// inside its parent's subtree.
		if p != 0 {
			if pe := end[p-1]; id > pe || e > pe {
				return fmt.Errorf("storage: node %d (subtree end %d) escapes parent %d ending at %d", id, e, p, pe)
			}
		}
		for _, vr := range s.TextRefs(nil, nil, id) {
			if int(vr.Container) >= len(s.Containers) || vr.Container < 0 {
				return fmt.Errorf("storage: node %d references container %d", id, vr.Container)
			}
			c := s.Containers[vr.Container]
			if int(vr.Index) >= c.Len() {
				return fmt.Errorf("storage: node %d references record %d of %s", id, vr.Index, c.Path)
			}
			if c.Owner(int(vr.Index)) != id {
				return fmt.Errorf("storage: value owner mismatch for node %d", id)
			}
		}
	}
	for _, c := range s.Containers {
		for i := 0; i < c.Len(); i++ {
			if c.Owner(i) == 0 {
				return fmt.Errorf("storage: record %d of %s belongs to no node", i, c.Path)
			}
		}
	}
	for _, sn := range s.Sum.Nodes() {
		for j := 1; j < len(sn.Extent); j++ {
			if sn.Extent[j-1] >= sn.Extent[j] {
				return fmt.Errorf("storage: summary %s extent not increasing", sn.Path())
			}
		}
		if sn.Container >= 0 && int(sn.Container) >= len(s.Containers) {
			return fmt.Errorf("storage: summary %s references container %d", sn.Path(), sn.Container)
		}
	}
	return nil
}
