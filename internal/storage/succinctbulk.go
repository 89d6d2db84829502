package storage

import "xquec/internal/succinct"

// Bulk structural kernels over the paren sequence. All take their
// inputs in strictly ascending ID order — the NodeSet invariant the
// algebra maintains everywhere — and exploit it by walking the paren
// and mark bitvectors forward with cursor scanners instead of issuing
// an independent Select1 pair per node. The scalar accessors stay the
// single source of truth for semantics; these must agree with them
// element-for-element (pinned by the property tests and the record
// oracle in records_test.go).

// parentBulk fills out[i] with the parent of ids[i] (0 for a root).
//
// Two cursors turn the per-node Select1 pair into a forward word walk,
// and the excess at the k-th open at position q is 2*(k+1)-(q+1), so
// no rank is ever taken. Sibling runs — the dominant shape of a
// document-ordered batch — repeat the previous answer: any open
// before the parent's close paren and one level below it belongs to
// that same parent, because the parent is the unique depth-ep node
// whose paren pair spans its subtree. Only a parent change pays for an
// ancestor search — the first-child test, else a backward excess search
// over the rmM tree — plus one FindClose for the new containment bound.
// (A running min-excess fold over the skipped parens was measured here
// too; its per-word table work costs more than the occasional
// FindClose on a parent change.)
func (t *SuccinctStructure) parentBulk(ids, out []NodeID) {
	ns := succinct.NewSelectScanner(t.isNode)
	qs := succinct.NewSelectScanner(t.pv)
	var lastPar NodeID
	ep := 0  // depth of lastPar's open paren
	cp := -1 // position of lastPar's close paren
	for i, id := range ids {
		k := ns.Seek(int(id) - 1)
		q := qs.Seek(k)
		e := 2*(k+1) - (q + 1)
		if lastPar != 0 && q < cp && e == ep+1 {
			out[i] = lastPar
			continue
		}
		if e <= 1 {
			out[i] = 0
			lastPar = 0
			continue
		}
		qp := t.bp.EncloseAt(q, e)
		lastPar = t.idAtOpen(qp)
		ep = e - 1
		cp = t.bp.FindCloseAt(qp, ep)
		out[i] = lastPar
	}
}

// subtreeEndBulk fills out[i] with the largest ID in the subtree of
// ids[i], as subtreeEnd but with the two selects amortized across the
// batch and the close-paren rank derived from the open ordinal.
func (t *SuccinctStructure) subtreeEndBulk(ids, out []NodeID) {
	ns := succinct.NewSelectScanner(t.isNode)
	qs := succinct.NewSelectScanner(t.pv)
	for i, id := range ids {
		k := ns.Seek(int(id) - 1)
		q := qs.Seek(k)
		c := t.bp.FindCloseAt(q, 2*(k+1)-(q+1))
		out[i] = NodeID(t.isNode.Rank1(k + (c-q+1)/2))
	}
}

// ParentBulk fills out[i] with the parent of ids[i] (0 for a root).
// ids must be strictly ascending; out must have len(ids) room.
func (s *Store) ParentBulk(ids, out []NodeID) { s.succ.parentBulk(ids, out) }

// SubtreeEndBulk fills out[i] with the largest ID in the subtree of
// ids[i]. ids must be strictly ascending; out must have len(ids) room.
func (s *Store) SubtreeEndBulk(ids, out []NodeID) { s.succ.subtreeEndBulk(ids, out) }
