package storage

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"xquec/internal/compress"
	"xquec/internal/compress/numeric"
	"xquec/internal/succinct"
	"xquec/internal/xmlparser"
	"xquec/internal/xpar"
)

// LoadOptions configures Load.
type LoadOptions struct {
	// Plan is the compression configuration (usually produced by the
	// cost-model search, §3). Nil means: typed codecs where values
	// round-trip, otherwise one ALM source model per container — the
	// paper's default when no workload is available.
	Plan *CompressionPlan
	// Dictionary pre-seeds the name dictionary (Parse).
	Dictionary []string
}

// BuildStats records the wall-clock time an ingest spent in each phase
// of the pipeline. Parse is the serial SAX pass, which writes the
// structure arrays; Classify, Train and Encode are the fan-out of Store
// (type inference, source-model training, value encoding + container
// sorting + value-ref resolution); Index is the serial freeze of the
// succinct structure (rank/select and navigation directories) and the
// summary statistics. Not persisted: repositories opened from disk
// report a zero BuildStats.
type BuildStats struct {
	Parse    time.Duration
	Classify time.Duration
	Train    time.Duration
	Encode   time.Duration
	Index    time.Duration
}

// Total returns the summed phase time.
func (b BuildStats) Total() time.Duration {
	return b.Parse + b.Classify + b.Train + b.Encode + b.Index
}

// Load parses an XML document and builds the compressed repository
// under opts.Plan: Parse, then Values.Store.
func Load(src []byte, opts LoadOptions) (*Store, error) {
	v, err := Parse(src, opts.Dictionary)
	if err != nil {
		return nil, err
	}
	return v.Store(opts.Plan)
}

// Parse is phase one of ingestion, the serial SAX pass. It writes the
// structure tree as it will be stored — paren bits, node marks, tag
// codes and one value ref per text leaf — and assembles the structure
// summary and the per-path plaintext value lists in document order
// (§2.2 makes each root-to-leaf path an independent compression unit,
// but document order itself is inherently sequential). Phase two is
// Values.Store, which fans out over those units.
//
// dictionary pre-seeds the name dictionary, in the given order. A
// segment set's append uses this to give every segment the previous
// segment's dictionary (identical name codes for the same tag across
// segments) even when a segment never sees some of the tags. Names
// encountered during the parse that are already pre-seeded keep their
// seeded code; new names append after the seed.
func Parse(src []byte, dictionary []string) (*Values, error) {
	in := &ingest{
		dict: newDictionary(),
		sum:  &Summary{},
		pb:   succinct.NewBitBuilder(len(src) / 8),
		mb:   succinct.NewBitBuilder(len(src) / 16),
	}
	for _, name := range dictionary {
		if _, err := in.dict.add(name); err != nil {
			return nil, err
		}
	}
	phase := time.Now()
	if err := xmlparser.NewParser(src).Parse(in.event); err != nil {
		return nil, err
	}
	a := &in.arr
	a.parens, a.nParens = in.pb.Words(), in.pb.Len()
	a.marks, a.nOpens = in.mb.Words(), in.mb.Len()
	v := &Values{
		lists: in.lists, list: a.valCont, pos: a.valIdx,
		names: in.dict.names, nameIdx: in.dict.idx, size: len(src), in: in,
	}
	v.parse = time.Since(phase)
	return v, nil
}

// ingest is the state of Parse's SAX pass: the structure arrays under
// construction and, per summary node, what the pass needs to find its
// way without comparing strings.
type ingest struct {
	dict   *dictionary
	sum    *Summary
	pb, mb *succinct.BitBuilder // paren bits; node marks over the opens
	// arr collects tags and value refs. Until Values.Store resolves
	// them, a ref's valCont is its value path's list — the container it
	// becomes — and its valIdx the value's position in that list.
	arr succinctArrays
	// lists are the value paths' (attribute or #text) values in document
	// order, one container's worth each, in the order their first values
	// appear; a value path's summary node names its list (Container).
	// The plaintexts are views of the document, or of slab when the
	// document spells them with references or CDATA.
	lists []valueList
	texts []*SummaryNode // by summary ID: its #text child, once an instance had text
	kids  childIndex
	stack []openElem
	slab  []byte // copies of the values the parser decoded into its own buffer
	// textLast: the last event but comments and processing instructions
	// was text, whose value is the last of its list.
	textLast bool
}

type openElem struct {
	id   NodeID
	sn   *SummaryNode
	text bool // a text leaf of this instance has been written
}

// event is the xmlparser.Handler of the pass. Comments and processing
// instructions are dropped, and the text on either side of one is one
// text leaf, as Serialize writes it back.
func (in *ingest) event(ev *xmlparser.Event) error {
	text := ev.Kind == xmlparser.EventText
	if !text && ev.Kind != xmlparser.EventComment && ev.Kind != xmlparser.EventProcInst {
		in.textLast = false
	}
	switch ev.Kind {
	case xmlparser.EventStartElement:
		code, err := in.dict.elem(ev.Name)
		if err != nil {
			return err
		}
		var parent *SummaryNode
		if len(in.stack) > 0 {
			parent = in.stack[len(in.stack)-1].sn
		}
		id, sn := in.open(parent, code)
		if len(ev.Attrs) > 0 && len(in.stack)+1 == xmlparser.MaxDepth {
			return fmt.Errorf("storage: attribute of an element at depth %d exceeds the 16-bit level space", xmlparser.MaxDepth)
		}
		for i := range ev.Attrs {
			a := &ev.Attrs[i]
			if code, err = in.dict.attr(a.Name); err != nil {
				return err
			}
			aid, asn := in.open(sn, code)
			asn.TextCount++
			in.value(asn, aid, a.Value, a.Decoded)
			in.pb.Append(false)
		}
		in.stack = append(in.stack, openElem{id: id, sn: sn})
	case xmlparser.EventEndElement:
		in.pb.Append(false)
		in.stack = in.stack[:len(in.stack)-1]
	case xmlparser.EventText:
		top := &in.stack[len(in.stack)-1]
		if in.textLast {
			// The value is copied to the slab on its first merge and ends
			// it from then on, so each later piece is only appended.
			l := &in.lists[in.texts[top.sn.ID].Container]
			last := &l.plains[len(l.plains)-1]
			k := len(in.slab) - len(*last)
			if len(*last) == 0 || k < 0 || &in.slab[k] != &(*last)[0] {
				k = len(in.slab)
				in.slab = append(in.slab, *last...)
			}
			in.slab = append(in.slab, ev.Text...)
			*last = in.slab[k:len(in.slab):len(in.slab)]
			return nil
		}
		in.textLast = true
		if !top.text {
			top.text = true
			top.sn.TextCount++
		}
		tsn := in.texts[top.sn.ID]
		if tsn == nil {
			tsn = in.kids.addText(in.sum, top.sn)
			in.texts = append(in.texts, nil)
			in.texts[top.sn.ID] = tsn
		}
		in.value(tsn, top.id, ev.Text, ev.Decoded)
	}
	return nil
}

// open writes the open paren of the next element or attribute node and
// files the node under its parent's summary child of that tag code.
func (in *ingest) open(parent *SummaryNode, code uint16) (NodeID, *SummaryNode) {
	in.pb.Append(true)
	in.mb.Append(true)
	in.arr.tags = append(in.arr.tags, code)
	id := NodeID(len(in.arr.tags))
	sn := in.kids.child(in.sum, parent, code, in.dict.names[code])
	if int(sn.ID) == len(in.texts) { // added just now
		in.texts = append(in.texts, nil)
	}
	sn.Extent = append(sn.Extent, id)
	return id, sn
}

// value writes a text leaf — "()", unmarked — owned by node owner and
// appends its plaintext to the list of the value path sn, which its
// first value opens.
func (in *ingest) value(sn *SummaryNode, owner NodeID, plain []byte, decoded bool) {
	in.pb.Append(true)
	in.pb.Append(false)
	in.mb.Append(false)
	if decoded {
		// The parser's buffer is overwritten by the next event.
		k := len(in.slab)
		in.slab = append(in.slab, plain...)
		plain = in.slab[k:len(in.slab):len(in.slab)]
	}
	if sn.Container < 0 {
		sn.Container = int32(len(in.lists))
		in.lists = append(in.lists, valueList{path: sn.Path()})
	}
	l := &in.lists[sn.Container]
	in.arr.valCont = append(in.arr.valCont, sn.Container)
	in.arr.valIdx = append(in.arr.valIdx, int32(len(l.plains)))
	l.plains = append(l.plains, plain)
	l.owners = append(l.owners, owner)
}

// buildContainers infers container types, resolves the compression plan
// into source-model groups, trains codecs and builds the sorted
// containers of lists, appending them to s.Containers in list order. It
// returns, per list, the mapping from document position to record index
// (buildContainer's); turning value refs into records is the caller's,
// Values.Store, its one caller.
//
// This is the fan-out phase of the pipeline. Three stages run on
// GOMAXPROCS workers, each over independent units:
//
//  1. classify: per container, the plaintext order (sortPlain) and
//     typed-codec round-trip inference (numeric trainers validate on
//     the container's own values only);
//  2. train: per source-model group, codec training on the union of the
//     group members' values in plaintext order (training is confined to
//     one goroutine per group — see DESIGN.md, "codec concurrency
//     contract");
//  3. encode: per container, value encoding + record sorting.
//
// Between stages the grouping and model registration run serially in
// list order, and every parallel stage writes results into a slice cell
// keyed by its input index, so the container order, group order and all
// persisted bytes are identical for any worker count.
func (s *Store) buildContainers(lists []valueList, plan *CompressionPlan) ([][]int32, error) {
	par := runtime.GOMAXPROCS(0)
	defaultAlg := AlgALM
	pathGroup := map[string]string{} // path -> group name
	groupAlg := map[string]string{}
	if plan != nil {
		if plan.DefaultAlgorithm != "" {
			defaultAlg = plan.DefaultAlgorithm
		}
		for g, paths := range plan.Groups {
			for _, p := range paths {
				pathGroup[p] = g
			}
			alg := plan.Algorithms[g]
			if alg == "" {
				alg = defaultAlg
			}
			groupAlg[g] = alg
		}
	}

	// Stage 1 (parallel): plaintext order and classification. For each
	// container, decide planned / typed / default-string. Type inference
	// trains typed codecs on the container's values — pure work on
	// private inputs.
	phase := time.Now()
	type classified struct {
		kind  ValueKind
		typed compress.Codec // non-nil when a typed codec round-trips
		group string         // plan group, "" if unplanned
	}
	cls := make([]classified, len(lists))
	err := xpar.ForEach(par, len(lists), func(i int) error {
		l := &lists[i]
		l.sortPlain()
		cls[i] = classified{kind: KindString}
		if g, planned := pathGroup[l.path]; planned {
			// The plan owns this container: treat as string.
			cls[i].group = g
			return nil
		}
		cls[i].kind, cls[i].typed = l.classify()
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.Build.Classify = time.Since(phase)

	// Serial: assemble groups in list order (member order decides the
	// training sample order, so it must not depend on scheduling).
	groups := map[string][]int{}
	for i := range lists {
		c := &cls[i]
		switch {
		case c.group != "":
			groups[c.group] = append(groups[c.group], i)
		case c.typed != nil:
			// typed containers bypass group training
		default:
			g := "path:" + lists[i].path
			groups[g] = append(groups[g], i)
			groupAlg[g] = defaultAlg
		}
	}
	groupNames := make([]string, 0, len(groups))
	for g := range groups {
		groupNames = append(groupNames, g)
	}
	sort.Strings(groupNames)

	// Stage 2 (parallel): train one codec per group on the union of the
	// members' values, each member's in plaintext order. Each training
	// run owns its group exclusively; the value lists are only read.
	phase = time.Now()
	groupCodecs := make([]compress.Codec, len(groupNames))
	err = xpar.ForEach(par, len(groupNames), func(gi int) error {
		g := groupNames[gi]
		alg := groupAlg[g]
		if alg == "" {
			alg = defaultAlg
		}
		tr, err := trainerFor(alg)
		if err != nil {
			return err
		}
		n := 0
		for _, i := range groups[g] {
			n += len(lists[i].plains)
		}
		union := make([][]byte, 0, n)
		for _, i := range groups[g] {
			union = lists[i].appendSorted(union)
		}
		codec, err := tr.Train(union)
		if err != nil {
			return fmt.Errorf("storage: training %s model for group %q: %w", alg, g, err)
		}
		groupCodecs[gi] = codec
		return nil
	})
	if err != nil {
		return nil, err
	}
	groupCodec := map[string]compress.Codec{}
	for gi, g := range groupNames {
		alg := groupAlg[g]
		if alg == "" {
			alg = defaultAlg
		}
		groupCodec[g] = groupCodecs[gi]
		s.Models[g] = GroupModel{Algorithm: alg, Codec: groupCodecs[gi]}
	}
	s.Build.Train = time.Since(phase)

	// Stage 3 (parallel): encode + sort each container. The codec and
	// group per container are resolved serially first, including the
	// typed-model registration (a shared-map write).
	phase = time.Now()
	contCodec := make([]compress.Codec, len(lists))
	contGroup := make([]string, len(lists))
	for i := range lists {
		c := &cls[i]
		if c.typed != nil {
			contCodec[i] = c.typed
			contGroup[i] = typedGroup(s.Models, c.typed)
			continue
		}
		contGroup[i] = pathGroupName(pathGroup, lists[i].path)
		contCodec[i] = groupCodec[contGroup[i]]
	}
	conts := make([]*Container, len(lists))
	mappings := make([][]int32, len(lists))
	err = xpar.ForEach(par, len(lists), func(i int) error {
		var err error
		conts[i], mappings[i], err = buildContainer(&lists[i], cls[i].kind, contGroup[i], contCodec[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	s.Containers = append(s.Containers, conts...)
	s.Build.Encode = time.Since(phase)
	return mappings, nil
}

// typedGroup returns the model group of a typed codec, registering it on
// first use: "typed:<name>", or, when a codec of other parameters has
// that name (a second decimal scale), the name plus its model bytes.
func typedGroup(models map[string]GroupModel, c compress.Codec) string {
	g := "typed:" + c.Name()
	if m, ok := models[g]; ok && m.Codec != c {
		g = fmt.Sprintf("%s/%x", g, c.AppendModel(nil))
	}
	if _, ok := models[g]; !ok {
		models[g] = GroupModel{Algorithm: c.Name(), Codec: c}
	}
	return g
}

func pathGroupName(pathGroup map[string]string, path string) string {
	if g, ok := pathGroup[path]; ok {
		return g
	}
	return "path:" + path
}

// inferTyped tries the typed codecs in order of specificity and returns
// the first whose round-trip validation accepts every value.
func inferTyped(plains [][]byte) (ValueKind, compress.Codec) {
	if len(plains) == 0 {
		return KindString, nil
	}
	if c, err := (numeric.IntTrainer{}).Train(plains); err == nil {
		return KindInt, c
	}
	if c, err := (numeric.DateTrainer{}).Train(plains); err == nil {
		return KindDate, c
	}
	if c, err := (numeric.DecimalTrainer{}).Train(plains); err == nil {
		return KindDecimal, c
	}
	if c, err := (numeric.FloatTrainer{}).Train(plains); err == nil {
		return KindFloat, c
	}
	return KindString, nil
}
