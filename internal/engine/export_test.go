package engine

import (
	"bytes"
	"math/rand"
	"regexp"
	"slices"
	"strings"

	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// The random-document generator and the directed documents, for the
// external test package.

// RandomDoc is datagen.RandomRecords with about one in eight label and
// num values split: half of them by a comment, which ingest drops and
// merges the text around (one record, the value), half by an empty <b/>,
// which leaves two text leaves (records that are pieces of the value).
// So the battery runs every fast path over both.
func RandomDoc(rng *rand.Rand) []byte {
	return splitValue.ReplaceAllFunc(datagen.RandomRecords(rng), func(m []byte) []byte {
		k := rng.Intn(16)
		if k > 1 {
			return m
		}
		sep := "<!--c-->"
		if k == 0 {
			sep = "<b/>"
		}
		i := bytes.IndexByte(m, '>') + 2
		return slices.Concat(m[:i], []byte(sep), m[i:])
	})
}

var splitValue = regexp.MustCompile(`<(label|num)>[^<]{2,}</`)

const NestedLists = nestedLists

// TreeOf returns every node's parent, subtree end and level (treeOf).
func TreeOf(s *storage.Store) (parent, end []storage.NodeID, level []uint16) {
	tr := treeOf(s)
	return tr.parent, tr.end, tr.level
}

// PeopleDoc is the small directed document of the unit tests.
const PeopleDoc = `<site>
  <people>
    <person id="p0"><name>Alice</name><age>30</age><city>Rome</city></person>
    <person id="p1"><name>Bob</name><age>25</age><city>Paris</city></person>
    <person id="p2"><name>Carol</name><age>41</age><city>Rome</city></person>
  </people>
  <auctions>
    <auction id="a0"><buyer person="p1"/><price>10.50</price><note>old gold ring</note></auction>
    <auction id="a1"><buyer person="p0"/><price>55.00</price><note>silver spoon</note></auction>
    <auction id="a2"><buyer person="p0"/><price>31.25</price><note>gold coin set</note></auction>
  </auctions>
</site>`

// CompileMaterialized compiles x choosing no cardinality rule: every
// count, empty and exists materializes its argument.
func CompileMaterialized(x xquery.Expr, s *storage.Store, src string) (*Program, error) {
	return compileProgram(x, s, src, false)
}

// JoinIndexBuilds returns how many join indexes were built so far.
func JoinIndexBuilds() int64 { return joinIndexBuilds.Load() }

// OffsetBuilds returns how many extent offset arrays were built so far.
func OffsetBuilds() int64 { return offsetBuilds.Load() }

// PrefixEnd is succ(P) of a starts-with range (prefixEnd).
var PrefixEnd = prefixEnd

// withPanic returns a copy of p whose instruction at pc reads past its
// operand pool: running it panics inside the dispatch loop.
func withPanic(p *Program, pc int) *Program {
	q := *p
	q.instrs = append([]instr(nil), p.instrs...)
	q.instrs[pc] = instr{Op: opEvalPush, A: int32(len(p.exprs))}
	return &q
}

// joinIndexBytes sums the join indexes p built at compile time.
func (p *Program) joinIndexBytes() int {
	n := 0
	for i := range p.preds {
		if idx := p.preds[i].idx; idx != nil {
			n += idx.sizeBytes()
		}
	}
	return n
}

// SerializeXML renders the remaining items as XML/text, one item per
// line.
func (r *Result) SerializeXML() (string, error) {
	var sb strings.Builder
	if _, err := r.WriteXML(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}
