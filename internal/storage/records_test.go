package storage

import (
	"bytes"
	"iter"
	"reflect"
	"slices"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/xmlparser"
)

// The record oracle: the paper's structure tree (§2.2) as one record per
// node — tag, parent, child list in document order with the immediate
// text values interleaved — plus the subtree end and level of the
// pre/post/level IDs. records rebuilds the array from a loaded store by
// one forward walk that reads the paren and mark bits one at a time, so
// it shares no rank, select or FindClose with the accessors it checks;
// serialize is the recursion over the child lists that the
// forward sweep replaced. It is what is left of the record backend that
// used to be selectable in the binary.

// Kid is one entry of a record's child list: an element or attribute
// child (ID != 0) or an immediate text value (ID == 0, Val set).
type Kid struct {
	ID  NodeID
	Val ValueRef
}

type record struct {
	tag    uint16
	parent NodeID
	end    NodeID // the largest ID in the subtree
	level  uint16
	kids   []Kid
}

// records returns the record array of s: records(s)[id-1] is node id's.
func records(s *Store) []record {
	t := s.succ
	recs := make([]record, t.numNodes())
	var stack []NodeID
	ord, id, leaf := 0, NodeID(0), 0
	for p := 0; p < t.pv.Len(); p++ {
		if !t.pv.Get(p) {
			recs[stack[len(stack)-1]-1].end = id
			stack = stack[:len(stack)-1]
			continue
		}
		if t.isNode.Get(ord) {
			id++
			r := &recs[id-1]
			r.tag, r.level = t.tags[id-1], uint16(len(stack)+1)
			if len(stack) > 0 {
				r.parent = stack[len(stack)-1]
				recs[r.parent-1].kids = append(recs[r.parent-1].kids, Kid{ID: id})
			}
			stack = append(stack, id)
		} else {
			owner := &recs[stack[len(stack)-1]-1]
			owner.kids = append(owner.kids, Kid{Val: ValueRef{Container: t.valCont[leaf], Index: t.valIdx[leaf]}})
			leaf++
			p++ // a text leaf is "()"
		}
		ord++
	}
	return recs
}

func (r *record) hasText() bool {
	return slices.ContainsFunc(r.kids, func(k Kid) bool { return k.ID == 0 })
}

// textRefs returns the references of the node's immediate text values.
func (r *record) textRefs() []ValueRef {
	var refs []ValueRef
	for _, k := range r.kids {
		if k.ID == 0 {
			refs = append(refs, k.Val)
		}
	}
	return refs
}

// text appends the node's immediate text values, decoded.
func (r *record) text(s *Store, dst []byte) ([]byte, error) {
	var err error
	for _, k := range r.kids {
		if k.ID == 0 {
			if dst, err = s.Containers[k.Val.Container].Decode(dst, int(k.Val.Index)); err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// serialize appends what Serialize (markup) or DeepText (!markup) must
// write for id.
func serialize(s *Store, recs []record, dst []byte, id NodeID, markup bool) ([]byte, error) {
	r := &recs[id-1]
	tag := s.Names[r.tag]
	var err error
	if isAttrName(tag) {
		if !markup {
			return r.text(s, dst)
		}
		dst = append(dst, tag[1:]...)
		dst = append(dst, '=', '"')
		from := len(dst)
		dst, err = r.text(s, dst)
		return append(xmlparser.EscapeAttrFrom(dst, from), '"'), err
	}
	isAttr := func(k Kid) bool { return k.ID != 0 && isAttrName(s.Names[recs[k.ID-1].tag]) }
	if markup {
		dst = append(dst, '<')
		dst = append(dst, tag...)
		for _, k := range r.kids {
			if !isAttr(k) {
				continue
			}
			dst = append(dst, ' ')
			if dst, err = serialize(s, recs, dst, k.ID, true); err != nil {
				return dst, err
			}
		}
		if !slices.ContainsFunc(r.kids, func(k Kid) bool { return !isAttr(k) }) {
			return append(dst, '/', '>'), nil
		}
		dst = append(dst, '>')
	}
	for _, k := range r.kids {
		switch {
		case k.ID == 0:
			from := len(dst)
			if dst, err = s.Containers[k.Val.Container].Decode(dst, int(k.Val.Index)); err != nil {
				return dst, err
			}
			if markup {
				dst = xmlparser.EscapeTextFrom(dst, from)
			}
		case !isAttr(k):
			if dst, err = serialize(s, recs, dst, k.ID, markup); err != nil {
				return dst, err
			}
		}
	}
	if markup {
		dst = append(dst, '<', '/')
		dst = append(dst, tag...)
		dst = append(dst, '>')
	}
	return dst, nil
}

// shape returns every node's parent, subtree end and level as the store
// reads them: by one call of each bulk sweep over all IDs, and ScanNodes.
func shape(s *Store) (parent, end []NodeID, level []uint16) {
	ids := make([]NodeID, s.NumNodes())
	for i := range ids {
		ids[i] = NodeID(i + 1)
	}
	parent, end, level = make([]NodeID, len(ids)), make([]NodeID, len(ids)), make([]uint16, len(ids))
	s.ParentBulk(ids, parent)
	s.SubtreeEndBulk(ids, end)
	s.ScanNodes(func(id NodeID, l uint16) { level[id-1] = l })
	return parent, end, level
}

func everyNode(s *Store) iter.Seq[NodeID] {
	return func(yield func(NodeID) bool) {
		for id := NodeID(1); int(id) <= s.NumNodes() && yield(id); id++ {
		}
	}
}

// checkRecords holds s to its records: parent, subtree end and level
// (shape), TagCodeOf, HasText, TextRefs and Text at every node, and Serialize and
// DeepText at the nodes sweepAt yields. A decode error only has to be
// met by one on the other side — a hostile store may hold corrupt values.
func checkRecords(t testing.TB, s *Store, sweepAt iter.Seq[NodeID]) {
	t.Helper()
	recs := records(s)
	if s.NumNodes() != len(recs) {
		t.Fatalf("NumNodes = %d, the records hold %d", s.NumNodes(), len(recs))
	}
	same := func(got, want []byte, gerr, werr error) bool {
		return (gerr == nil) == (werr == nil) && (gerr != nil || bytes.Equal(got, want))
	}
	var got, want []byte
	var gerr, werr error
	parent, end, level := shape(s)
	for i := range recs {
		id, r := NodeID(i+1), &recs[i]
		if parent[i] != r.parent || end[i] != r.end || level[i] != r.level ||
			s.TagCodeOf(id) != r.tag || s.HasText(nil, id) != r.hasText() {
			t.Fatalf("node %d: parent/end/level/tag/text %d %d %d %d %v, records %d %d %d %d %v", id,
				parent[i], end[i], level[i], s.TagCodeOf(id), s.HasText(nil, id),
				r.parent, r.end, r.level, r.tag, r.hasText())
		}
		if refs := s.TextRefs(nil, nil, id); !slices.Equal(refs, r.textRefs()) {
			t.Fatalf("TextRefs(%d) = %v, records %v", id, refs, r.textRefs())
		}
		got, gerr = s.Text(nil, got[:0], id)
		want, werr = r.text(s, want[:0])
		if !same(got, want, gerr, werr) {
			t.Fatalf("Text(%d) = %q (%v), records %q (%v)", id, got, gerr, want, werr)
		}
	}
	for id := range sweepAt {
		for _, markup := range []bool{true, false} {
			if markup {
				got, gerr = s.Serialize(nil, got[:0], id)
			} else {
				got, gerr = s.DeepText(nil, got[:0], id)
			}
			want, werr = serialize(s, recs, want[:0], id, markup)
			if !same(got, want, gerr, werr) {
				t.Fatalf("Serialize/DeepText(%d), markup %v:\n sweep     %q (%v)\n recursion %q (%v)", id, markup, got, gerr, want, werr)
			}
		}
	}
}

// oracleStores returns doc as an ingested store, as a store opened from
// its file bytes, and as the fusion of the document with other (both
// under one root, which carries no attribute): the three ways a
// structure comes to exist.
func oracleStores(t *testing.T, doc, other []byte) map[string]*Store {
	t.Helper()
	a, err := Load(doc, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opened, err := LoadBinary(a.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(other, LoadOptions{Dictionary: a.Names})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFusion([]*Store{a, b})
	_, endA := f.Span(0)
	_, endB := f.Span(1)
	f.Add(0, 0, endA)
	f.Add(1, 1, endB)
	f.Add(0, endA, endA+1)
	fused, err := f.Store()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Store{"ingested": a, "opened": opened, "fused": fused}
}

// checkCorpora runs checkRecords, serializing at every node, on every
// kind of store of every corpus (a document and the one it is fused with).
func checkCorpora(t *testing.T, corpora map[string][2][]byte) {
	for name, docs := range corpora {
		t.Run(name, func(t *testing.T) {
			for kind, s := range oracleStores(t, docs[0], docs[1]) {
				t.Run(kind, func(t *testing.T) { checkRecords(t, s, everyNode(s)) })
			}
		})
	}
}

// TestCrossBackendEquivalence holds the paren sequence to the record
// oracle — the backend the binary no longer has — on a small, a bushy
// and a deep corpus. TestSweepMatchesRecursion runs the same check on
// the edge-case, random and larger corpora.
func TestCrossBackendEquivalence(t *testing.T) {
	checkCorpora(t, map[string][2][]byte{
		"tiny": {[]byte(tinyDoc), []byte(tinyDoc)},
		"xmark": {
			datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 7}),
			datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 8}),
		},
		"deep": {
			datagen.DeepTree(datagen.DeepTreeConfig{Depth: 700, Fanout: 3, Seed: 7}),
			datagen.DeepTree(datagen.DeepTreeConfig{Depth: 300, Fanout: 3, Seed: 8}),
		},
	})
}

// TestPersistRoundTripBothModes: a saved repository must reopen
// equivalent to the original — the same records, the Validate oracle,
// the footprint model and the re-serialized bytes ("succinct", the
// store the binary has) — and hold to the record oracle itself
// ("records"), for a bushy, a deep, a mixed-content and a two-scale
// document.
func TestPersistRoundTripBothModes(t *testing.T) {
	docs := map[string][]byte{
		"xmark": datagen.XMark(datagen.XMarkConfig{Scale: 0.002, Seed: 11}),
		"deep":  datagen.DeepTree(datagen.DeepTreeConfig{Depth: 300, Seed: 3}),
		"mixed": []byte(`<doc id="1">lead <b>bold</b> middle <i a="x">it<u>deep</u>al</i> tail<e/><n>42</n><n>7</n> end</doc>`),
		// Two decimal scales (and a repeat of each): one group per codec,
		// or the second scale reopens under the first's model.
		"scales": []byte(`<r><a>1.25</a><a>2.50</a><b>1.250</b><b>3.125</b><c>0.75</c><d>0.001</d><e>0.5</e></r>`),
	}
	for name, doc := range docs {
		s, err := Load(doc, LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		blob := s.AppendBinary(nil)
		s2, err := LoadBinary(bytes.Clone(blob))
		if err != nil {
			t.Fatalf("%s: LoadBinary: %v", name, err)
		}
		t.Run(name+"/succinct", func(t *testing.T) {
			if err := s2.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if !reflect.DeepEqual(records(s2), records(s)) {
				t.Fatal("the reopened store's records differ from the ingested one's")
			}
			if got := s2.Footprint(); got != s.Footprint() {
				t.Fatalf("footprint after reload %v, ingested %v", got, s.Footprint())
			}
			if !bytes.Equal(blob, s2.AppendBinary(nil)) {
				t.Fatal("re-serialization differs")
			}
		})
		t.Run(name+"/records", func(t *testing.T) { checkRecords(t, s2, everyNode(s2)) })
	}
}

// TestSuccinctStructureMemory: the BP proper must stay within ~3 bits
// per tree node and the node marks within ~2.
func TestSuccinctStructureMemory(t *testing.T) {
	s, err := Load(datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 3}), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bpBits, markBits, treeNodes := s.StructureStats()
	if want := s.NumNodes() + len(s.succ.valIdx); treeNodes != want {
		t.Fatalf("treeNodes = %d, want %d", treeNodes, want)
	}
	if bpn := float64(bpBits) / float64(treeNodes); bpn > 3 {
		t.Fatalf("BP bits/node = %.2f, want <= 3", bpn)
	}
	if mbn := float64(markBits) / float64(treeNodes); mbn > 2 {
		t.Fatalf("mark bits/node = %.2f, want <= 2", mbn)
	}
}
