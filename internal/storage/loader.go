package storage

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"xquec/internal/btree"
	"xquec/internal/compress"
	"xquec/internal/compress/numeric"
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
	// Structure selects the structure-tree backend. StructDefault means
	// succinct unless the XQUEC_STRUCT environment variable says
	// "records". The choice affects memory and latency, never results or
	// persisted bytes.
	Structure StructureKind
}

// Load parses an XML document and builds the compressed repository.
//
// Ingestion is a two-phase pipeline. Phase one is the serial SAX pass:
// it assembles the structure tree, the structure summary and the
// per-container plaintext value lists in document order (§2.2 makes
// each root-to-leaf path an independent compression unit, but document
// order itself is inherently sequential). Phase two fans out over those
// independent units on a worker pool — see buildContainers.
func Load(src []byte, opts LoadOptions) (*Store, error) {
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	s := &Store{
		nameIdx:      map[string]uint16{},
		Models:       map[string]GroupModel{},
		OriginalSize: len(src),
	}
	s.Build.Parallelism = par
	for _, name := range opts.Dictionary {
		s.intern(name)
	}
	sum := &Summary{}
	s.Sum = sum

	values := map[int32]*valueList0{}
	valueListFor := func(sn *SummaryNode) *valueList0 {
		vl := values[sn.ID]
		if vl == nil {
			vl = &valueList0{sumID: sn.ID}
			values[sn.ID] = vl
		}
		return vl
	}

	type frame struct {
		id  NodeID
		sn  *SummaryNode
		lvl uint16
	}
	var stack []frame
	fanTotal := map[int32]int{}

	newNode := func(tag string, parent NodeID, lvl uint16) NodeID {
		s.nodes = append(s.nodes, NodeRecord{Tag: s.intern(tag), Parent: parent})
		s.end = append(s.end, NodeID(len(s.nodes)))
		s.level = append(s.level, lvl)
		return NodeID(len(s.nodes))
	}

	phase := time.Now()
	p := xmlparser.NewParser(src)
	err := p.Parse(func(ev *xmlparser.Event) error {
		switch ev.Kind {
		case xmlparser.EventStartElement:
			var parent frame
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			id := newNode(ev.Name, parent.id, parent.lvl+1)
			sn := sum.child(parent.sn, ev.Name, true)
			sn.Extent = append(sn.Extent, id)
			if parent.id != 0 {
				s.nodes[parent.id-1].Kids = append(s.nodes[parent.id-1].Kids, NodeChild(id))
				fanTotal[parent.sn.ID]++
			}
			for _, a := range ev.Attrs {
				aid := newNode("@"+a.Name, id, parent.lvl+2)
				s.nodes[id-1].Kids = append(s.nodes[id-1].Kids, NodeChild(aid))
				asn := sum.child(sn, "@"+a.Name, true)
				asn.Extent = append(asn.Extent, aid)
				vl := valueListFor(asn)
				vl.plains = append(vl.plains, []byte(a.Value))
				vl.owners = append(vl.owners, aid)
				// Placeholder ref: Container = summary ID, Index =
				// document position; fixed up after containers build.
				s.nodes[aid-1].Values = append(s.nodes[aid-1].Values,
					ValueRef{Container: asn.ID, Index: int32(len(vl.plains) - 1)})
				s.nodes[aid-1].Kids = append(s.nodes[aid-1].Kids, ValueChild(0))
			}
			stack = append(stack, frame{id: id, sn: sn, lvl: parent.lvl + 1})
		case xmlparser.EventEndElement:
			top := stack[len(stack)-1]
			s.end[top.id-1] = NodeID(len(s.nodes))
			stack = stack[:len(stack)-1]
		case xmlparser.EventText:
			top := stack[len(stack)-1]
			tsn := sum.child(top.sn, "#text", true)
			vl := valueListFor(tsn)
			vl.plains = append(vl.plains, []byte(ev.Text))
			vl.owners = append(vl.owners, top.id)
			owner := &s.nodes[top.id-1]
			owner.Kids = append(owner.Kids, ValueChild(len(owner.Values)))
			owner.Values = append(owner.Values,
				ValueRef{Container: tsn.ID, Index: int32(len(vl.plains) - 1)})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(s.nodes) == 0 {
		return nil, fmt.Errorf("storage: document has no elements")
	}
	s.Build.Parse = time.Since(phase)

	if err := s.buildContainers(sum, values, opts.Plan, par); err != nil {
		return nil, err
	}

	phase = time.Now()
	if resolveStructure(opts.Structure) == StructSuccinct {
		// Swap the record arrays for the BP self-index. The succinct
		// backend also skips the redundant B+ index: with dense pre-order
		// IDs it is never consulted, and it would defeat the memory goal.
		s.succ = recordsToArrays(s).build()
		s.nodes, s.end, s.level = nil, nil, nil
	} else {
		// Redundant B+ index over node IDs.
		keys := make([]uint64, len(s.nodes))
		vals := make([]int64, len(s.nodes))
		for i := range keys {
			keys[i] = uint64(i + 1)
			vals[i] = int64(i)
		}
		s.Index = btree.BulkLoad(keys, vals)
	}

	// Statistics.
	for _, sn := range sum.Nodes() {
		sn.Count = len(sn.Extent)
		if sn.Count > 0 {
			sn.AvgFan = float64(fanTotal[sn.ID]) / float64(sn.Count)
		}
	}
	s.Build.Index = time.Since(phase)
	addBuildTotals(s.Build)
	return s, nil
}

// buildContainers infers container types, resolves the compression plan
// into source-model groups, trains codecs, builds sorted containers and
// fixes up the placeholder value refs in the structure tree.
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
func (s *Store) buildContainers(sum *Summary, values map[int32]*valueList0, plan *CompressionPlan, par int) error {
	sumIDs := make([]int32, 0, len(values))
	for id := range values {
		sumIDs = append(sumIDs, id)
	}
	sort.Slice(sumIDs, func(i, j int) bool { return sumIDs[i] < sumIDs[j] })

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
		if kind, codec := inferTyped(values[id].plains); codec != nil {
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
	// shared `values` map is only read.
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
		var union [][]byte
		for _, m := range groups[g] {
			union = append(union, values[m.sumID].plains...)
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
		vl := values[sumIDs[i]]
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

	// Serial: append containers in summary-ID order and remember the
	// fix-up maps.
	contOf := map[int32]int32{}
	mappings := map[int32][]int32{}
	for i, id := range sumIDs {
		idx := int32(len(s.Containers))
		s.Containers = append(s.Containers, conts[i])
		sum.NodeByID(id).Container = idx
		contOf[id] = idx
		mappings[id] = mappingByIdx[i]
	}

	// Fix up the placeholder value refs.
	for i := range s.nodes {
		n := &s.nodes[i]
		for vi := range n.Values {
			sumID := n.Values[vi].Container
			n.Values[vi] = ValueRef{
				Container: contOf[sumID],
				Index:     mappings[sumID][n.Values[vi].Index],
			}
		}
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

// valueList0 is the loader-internal accumulation of one container's
// values in document order.
type valueList0 struct {
	sumID  int32
	plains [][]byte
	owners []NodeID
}
