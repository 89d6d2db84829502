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
)

// LoadOptions configures the loader/compressor.
type LoadOptions struct {
	// Plan is the compression configuration (usually produced by the
	// cost-model search, §3). Nil means: typed codecs where values
	// round-trip, otherwise one ALM source model per container — the
	// paper's default when no workload is available.
	Plan *CompressionPlan
	// Parallelism is the worker count for the fan-out phase of the
	// pipeline: per-container type inference, source-model training
	// (ALM partition mining, Huffman/Hu-Tucker tree building), value
	// encoding and record sorting. 0 means GOMAXPROCS; 1 forces the
	// serial path. Serial and parallel builds produce byte-identical
	// repositories: every unit of fan-out work is a pure function of its
	// inputs and results are placed by index, not completion order.
	Parallelism int
	// Dictionary pre-seeds the name dictionary before the SAX pass, in
	// the given order. Shard-set ingestion uses this to give every shard
	// repository one shared dictionary (identical name codes for the same
	// tag across shards) even when a shard never sees some of the tags.
	// Names encountered during the parse that are already pre-seeded keep
	// their seeded code; new names append after the seed.
	Dictionary []string
}

// Load parses an XML document and builds the compressed repository.
//
// Ingestion is a two-phase pipeline. Phase one is the serial SAX pass:
// it writes the structure tree as it will be stored — paren bits, node
// marks, tag codes and one value ref per text leaf — and assembles the
// structure summary and the per-container plaintext value lists in
// document order (§2.2 makes each root-to-leaf path an independent
// compression unit, but document order itself is inherently sequential).
// Phase two fans out over those independent units on a worker pool — see
// buildContainers — and the arrays are frozen the way an opened file's
// and a fusion's are (succinctArrays.build).
func Load(src []byte, opts LoadOptions) (*Store, error) {
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	s := &Store{
		Models:       map[string]GroupModel{},
		OriginalSize: len(src),
		Sum:          &Summary{},
	}
	s.Build.Parallelism = par
	in := &ingest{
		dict: newDictionary(),
		sum:  s.Sum,
		pb:   succinct.NewBitBuilder(len(src) / 8),
		mb:   succinct.NewBitBuilder(len(src) / 16),
	}
	for _, name := range opts.Dictionary {
		if _, err := in.dict.add(name); err != nil {
			return nil, err
		}
	}

	phase := time.Now()
	if err := xmlparser.NewParser(src).Parse(in.event); err != nil {
		return nil, err
	}
	s.Names, s.nameIdx = in.dict.names, in.dict.idx
	s.Build.Parse = time.Since(phase)

	if err := s.buildContainers(in, opts.Plan, par); err != nil {
		return nil, err
	}

	phase = time.Now()
	a := &in.arr
	a.parens, a.nParens = in.pb.Words(), in.pb.Len()
	a.marks, a.nOpens = in.mb.Words(), in.mb.Len()
	s.succ = a.build()
	// Statistics.
	for _, sn := range s.Sum.Nodes() {
		sn.Count = len(sn.Extent)
		if sn.Count > 0 {
			sn.AvgFan = float64(in.sums[sn.ID].fan) / float64(sn.Count)
		}
	}
	s.Build.Index = time.Since(phase)
	addBuildTotals(s.Build)
	return s, nil
}

// ingest is the state of Load's SAX pass: the structure arrays under
// construction and, per summary node, what the pass needs to find its
// way without comparing strings.
type ingest struct {
	dict   *dictionary
	sum    *Summary
	pb, mb *succinct.BitBuilder // paren bits; node marks over the opens
	// arr collects tags and value refs. Until buildContainers resolves
	// them, a ref's valCont is the summary ID of its value path and its
	// valIdx the value's position in that path's list.
	arr   succinctArrays
	sums  []sumState // by summary ID
	kids  childIndex
	stack []openElem
	slab  []byte // copies of the values the parser decoded into its own buffer
}

type sumState struct {
	fan  int          // element children over all instances
	text *SummaryNode // the #text child, once an instance had text
	// A value path's (attribute or #text) values in document order, one
	// container's worth. The plaintexts are views of the document, or of
	// ingest.slab when the document spells them with references or CDATA.
	plains [][]byte
	owners []NodeID
}

type openElem struct {
	id   NodeID
	sn   *SummaryNode
	text bool // a text leaf of this instance has been written
}

// event is the xmlparser.Handler of the pass.
func (in *ingest) event(ev *xmlparser.Event) error {
	switch ev.Kind {
	case xmlparser.EventStartElement:
		code, err := in.dict.elem(ev.Name)
		if err != nil {
			return err
		}
		var parent *SummaryNode
		if len(in.stack) > 0 {
			parent = in.stack[len(in.stack)-1].sn
			in.sums[parent.ID].fan++
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
		if !top.text {
			top.text = true
			top.sn.TextCount++
		}
		tsn := in.sums[top.sn.ID].text
		if tsn == nil {
			tsn = in.kids.addText(in.sum, top.sn)
			in.sums = append(in.sums, sumState{})
			in.sums[top.sn.ID].text = tsn
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
	if int(sn.ID) == len(in.sums) { // added just now
		in.sums = append(in.sums, sumState{})
	}
	sn.Extent = append(sn.Extent, id)
	return id, sn
}

// value writes a text leaf — "()", unmarked — owned by node owner and
// appends its plaintext to the list of the value path sn.
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
	st := &in.sums[sn.ID]
	in.arr.valCont = append(in.arr.valCont, sn.ID)
	in.arr.valIdx = append(in.arr.valIdx, int32(len(st.plains)))
	st.plains = append(st.plains, plain)
	st.owners = append(st.owners, owner)
}

// buildContainers infers container types, resolves the compression plan
// into source-model groups, trains codecs, builds sorted containers and
// resolves the structure arrays' value refs against them.
//
// This is the fan-out phase of the pipeline. Three stages run on the
// worker pool, each over independent units:
//
//  1. classify: per container, typed-codec round-trip inference
//     (numeric trainers validate on the container's own values only);
//  2. train: per source-model group, codec training on the union of the
//     group members' values (training is confined to one goroutine per
//     group — see DESIGN.md, "codec concurrency contract");
//  3. encode: per container, value encoding + record sorting.
//
// Between stages the grouping and model registration run serially in
// summary-ID order, and every parallel stage writes results into a
// slice cell keyed by its input index, so the container order, group
// order and all persisted bytes are identical for any worker count.
func (s *Store) buildContainers(in *ingest, plan *CompressionPlan, par int) error {
	sum := in.sum
	var sumIDs []int32 // the value paths, ascending
	for id := range in.sums {
		if len(in.sums[id].plains) > 0 {
			sumIDs = append(sumIDs, int32(id))
		}
	}
	plains := func(sumID int32) [][]byte { return in.sums[sumID].plains }

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

	// Stage 1 (parallel): classification. For each container, decide
	// planned / typed / default-string. Type inference trains typed
	// codecs on the container's values — pure work on private inputs.
	phase := time.Now()
	type classified struct {
		path  string
		kind  ValueKind
		typed compress.Codec // non-nil when a typed codec round-trips
		group string         // plan group, "" if unplanned
	}
	cls := make([]classified, len(sumIDs))
	err := forEachIndex(par, len(sumIDs), func(i int) error {
		id := sumIDs[i]
		path := sum.NodeByID(id).Path()
		cls[i] = classified{path: path, kind: KindString}
		if g, planned := pathGroup[path]; planned {
			// The plan owns this container: treat as string.
			cls[i].group = g
			return nil
		}
		if kind, codec := inferTyped(plains(id)); codec != nil {
			cls[i].kind = kind
			cls[i].typed = codec
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.Build.Classify = time.Since(phase)

	// Serial: assemble groups in summary-ID order (member order decides
	// the training sample order, so it must not depend on scheduling).
	type member struct {
		sumID int32
		path  string
	}
	groups := map[string][]member{}
	for i, id := range sumIDs {
		c := &cls[i]
		switch {
		case c.group != "":
			groups[c.group] = append(groups[c.group], member{id, c.path})
		case c.typed != nil:
			// typed containers bypass group training
		default:
			g := "path:" + c.path
			groups[g] = append(groups[g], member{id, c.path})
			groupAlg[g] = defaultAlg
		}
	}
	groupNames := make([]string, 0, len(groups))
	for g := range groups {
		groupNames = append(groupNames, g)
	}
	sort.Strings(groupNames)

	// Stage 2 (parallel): train one codec per group on the union of the
	// members' values. Each training run owns its group exclusively; the
	// value lists are only read.
	phase = time.Now()
	groupCodecs := make([]compress.Codec, len(groupNames))
	err = forEachIndex(par, len(groupNames), func(gi int) error {
		g := groupNames[gi]
		alg := groupAlg[g]
		if alg == "" {
			alg = defaultAlg
		}
		tr, err := trainerFor(alg)
		if err != nil {
			return err
		}
		union := plains(groups[g][0].sumID)
		if len(groups[g]) > 1 {
			union = nil
			for _, m := range groups[g] {
				union = append(union, plains(m.sumID)...)
			}
		}
		codec, err := tr.Train(union)
		if err != nil {
			return fmt.Errorf("storage: training %s model for group %q: %w", alg, g, err)
		}
		groupCodecs[gi] = codec
		return nil
	})
	if err != nil {
		return err
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
	contCodec := make([]compress.Codec, len(sumIDs))
	contGroup := make([]string, len(sumIDs))
	for i := range sumIDs {
		c := &cls[i]
		if c.typed != nil {
			contCodec[i] = c.typed
			contGroup[i] = typedGroup(s.Models, c.typed)
			continue
		}
		contGroup[i] = pathGroupName(pathGroup, c.path)
		contCodec[i] = groupCodec[contGroup[i]]
	}
	conts := make([]*Container, len(sumIDs))
	mappingByIdx := make([][]int32, len(sumIDs))
	err = forEachIndex(par, len(sumIDs), func(i int) error {
		vl := &in.sums[sumIDs[i]]
		cont, mapping, err := buildContainer(cls[i].path, cls[i].kind, contGroup[i], contCodec[i], vl.plains, vl.owners)
		if err != nil {
			return err
		}
		conts[i] = cont
		mappingByIdx[i] = mapping
		return nil
	})
	if err != nil {
		return err
	}

	// Serial: append containers in summary-ID order, then turn every
	// ref's (summary ID, document position) into (container, record).
	contOf := make([]int32, len(in.sums))
	mappings := make([][]int32, len(in.sums))
	for i, id := range sumIDs {
		contOf[id] = int32(len(s.Containers))
		mappings[id] = mappingByIdx[i]
		sum.NodeByID(id).Container = contOf[id]
		s.Containers = append(s.Containers, conts[i])
	}
	a := &in.arr
	for v, sumID := range a.valCont {
		a.valCont[v] = contOf[sumID]
		a.valIdx[v] = mappings[sumID][a.valIdx[v]]
	}
	s.Build.Encode = time.Since(phase)
	return nil
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
