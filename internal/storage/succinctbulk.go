package storage

import "xquec/internal/succinct"

// Bulk structural kernels over the paren sequence. Each is one forward
// sweep over the paren and mark words with a stack of open nodes — no
// close is searched for and nothing is read backward. Their inputs are
// strictly ascending IDs, the NodeSet invariant the algebra keeps
// everywhere; the record oracle in records_test.go pins them element for
// element.

// parentBulk fills out[i] with the parent of ids[i] (0 for the root).
// The sweep starts at the first paren, keeps the IDs of the open nodes
// on a stack — a node's parent is the top when it opens — and ends at
// the open of the last input.
func (t *SuccinctStructure) parentBulk(ids, out []NodeID) {
	words, marks := t.pv.Words(), t.isNode.Words()
	var fixed [64]NodeID
	stack := fixed[:0]
	ord, id, i := 0, NodeID(0), 0
	for p := 0; i < len(ids); p++ {
		if words[p>>6]>>(uint(p)&63)&1 == 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		if marks[ord>>6]>>(uint(ord)&63)&1 == 1 {
			id++
			if id == ids[i] {
				out[i] = 0
				if len(stack) > 0 {
					out[i] = stack[len(stack)-1]
				}
				i++
			}
			stack = append(stack, id)
		} else {
			p++ // a text leaf is "()"
		}
		ord++
	}
}

// subtreeEndBulk fills out[i] with the largest ID in the subtree of
// ids[i]. The sweep keeps a stack of the inputs still open, each with
// the depth before its open, and from each position scans forward for
// whichever comes first: the close of the top — found by ScanClose, up
// to the next input's open — or that open, placed by select scanners.
// The k-th open paren, at position q, has depth 2k-q before it (k opens
// and q-k closes precede it), and a close at c back to depth e ends a
// subtree whose last open is the ((c+1+e)/2)-th: its end is the node
// marks among those opens, one rank per input.
func (t *SuccinctStructure) subtreeEndBulk(ids, out []NodeID) {
	ms, ps := succinct.NewSelectScanner(t.isNode), succinct.NewSelectScanner(t.pv)
	type pending struct{ i, depth int }
	var fixed [64]pending
	stack := fixed[:0]
	n := t.pv.Len()
	p, dp := 0, 0 // the next position to scan and the depth before it
	next, k, q := 0, 0, n
	seek := func() {
		if next < len(ids) {
			k = ms.Seek(int(ids[next]) - 1)
			q = ps.Seek(k)
		} else {
			q = n
		}
	}
	seek()
	for next < len(ids) || len(stack) > 0 {
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			if c := t.pv.ScanClose(p, q, dp-top.depth); c < q {
				out[top.i] = NodeID(t.isNode.Rank1((c + 1 + top.depth) / 2))
				stack = stack[:len(stack)-1]
				p, dp = c+1, top.depth
				continue
			}
		}
		stack = append(stack, pending{next, 2*k - q})
		p, dp = q+1, 2*k-q+1
		next++
		seek()
	}
}

// ParentBulk fills out[i] with the parent of ids[i] (0 for a root).
// ids must be strictly ascending; out must have len(ids) room.
func (s *Store) ParentBulk(ids, out []NodeID) { s.succ.parentBulk(ids, out) }

// SubtreeEndBulk fills out[i] with the largest ID in the subtree of
// ids[i]. ids must be strictly ascending; out must have len(ids) room.
func (s *Store) SubtreeEndBulk(ids, out []NodeID) { s.succ.subtreeEndBulk(ids, out) }
