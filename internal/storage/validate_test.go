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
	for i := 0; i < nNodes; i++ {
		id := NodeID(i + 1)
		if int(s.TagCodeOf(id)) >= len(s.Names) {
			return fmt.Errorf("storage: node %d has out-of-range tag %d", id, s.TagCodeOf(id))
		}
		if p := s.Parent(id); p >= id {
			return fmt.Errorf("storage: node %d has non-preceding parent %d", id, p)
		}
		if e := s.SubtreeEnd(id); e < id || int(e) > nNodes {
			return fmt.Errorf("storage: node %d has bad subtree end %d", id, e)
		}
		for k := range s.Kids(id) {
			if k.ID == 0 {
				vr := k.Val
				if int(vr.Container) >= len(s.Containers) || vr.Container < 0 {
					return fmt.Errorf("storage: node %d references container %d", id, vr.Container)
				}
				c := s.Containers[vr.Container]
				if int(vr.Index) >= c.Len() {
					return fmt.Errorf("storage: node %d references record %d of %s", id, vr.Index, c.Path)
				}
				if c.Record(int(vr.Index)).Owner != id {
					return fmt.Errorf("storage: value owner mismatch for node %d", id)
				}
				continue
			}
			if k.ID <= id || int(k.ID) > nNodes {
				return fmt.Errorf("storage: node %d has bad child %d", id, k.ID)
			}
			if p := s.Parent(k.ID); p != id {
				return fmt.Errorf("storage: child %d of %d has parent %d", k.ID, id, p)
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
