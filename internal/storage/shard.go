package storage

import (
	"fmt"

	"xquec/internal/xmlparser"
	"xquec/internal/xpar"
)

// Shard-aware ingestion: split one XML corpus into N shard documents at
// a subtree boundary, then compress each shard independently while all
// shards share one name dictionary.
//
// The split is structural, not byte-range based. A partition level P is
// chosen (auto: the deepest of levels 2 and 3 that has elements, so an
// XMark document partitions at /site/*/* — person, open_auction,
// category, ... subtrees). Every element at level P roots a "partitioned
// subtree"; the g-th such subtree in document order is routed to shard
// g mod N (global round-robin). Everything above level P — the spine —
// is echoed into every shard, so each shard parses as a complete,
// well-formed document and its structure summary embeds into the
// original document's summary. Spine text nodes are routed to shard 0
// only (exactly one shard owns each value); spine attributes ride with
// the echoed open tags and are deliberately duplicated, because an
// attribute is part of its element tag.
//
// Round-robin routing makes the routing map implicit: shard s's k-th
// partitioned subtree (in that shard's document order) has global rank
// k*N + s, so the fusion of the shards restores document order from
// (shard, ordinal) alone, with no per-subtree routing table. The
// manifest only needs the shard count, the partition level and the
// per-shard subtree counts.
//
// One corpus shape is rejected: mixed content at a partition parent (a
// level P-1 element with both text children and element children).
// Splitting such an element would lose the text/subtree interleaving
// order, so the splitter fails loudly rather than silently reordering.

// ShardSplit is the outcome of splitting a document for sharded
// ingestion: the per-shard XML documents plus the metadata a shard-set
// manifest persists.
type ShardSplit struct {
	// Docs holds one well-formed XML document per shard.
	Docs [][]byte
	// Dictionary is the global name dictionary (element tags and
	// "@"-prefixed attribute names) in first-seen document order over
	// the whole corpus — the LoadOptions.Dictionary pre-seed for every
	// shard.
	Dictionary []string
	// PartitionLevel is the element level whose subtrees were routed
	// (root = level 1).
	PartitionLevel int
	// Subtrees is the total number of partitioned subtrees.
	Subtrees int
	// SubtreeCounts is the number of partitioned subtrees per shard.
	SubtreeCounts []int
}

// SplitXML splits src into `shards` well-formed XML documents at the
// auto-chosen partition level (partitionLevel 0) or the given one.
// The split is deterministic: byte-identical inputs produce
// byte-identical shard documents.
func SplitXML(src []byte, shards, partitionLevel int) (*ShardSplit, error) {
	if shards < 1 {
		return nil, fmt.Errorf("storage: shard count %d < 1", shards)
	}

	// Pass 1: collect the global first-seen name dictionary (mirroring
	// the loader's intern order: element tag, then its attributes in
	// order) and per-level element counts for the auto partition level.
	var (
		dict     = newDictionary()
		depth    int
		lvlCount [4]int // elements at levels 1..3
	)
	p := xmlparser.NewParser(src)
	err := p.Parse(func(ev *xmlparser.Event) error {
		switch ev.Kind {
		case xmlparser.EventStartElement:
			depth++
			if depth < len(lvlCount) {
				lvlCount[depth]++
			}
			if _, err := dict.elem(ev.Name); err != nil {
				return err
			}
			for _, a := range ev.Attrs {
				if _, err := dict.attr(a.Name); err != nil {
					return err
				}
			}
		case xmlparser.EventEndElement:
			depth--
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	level := partitionLevel
	if level == 0 {
		switch {
		case lvlCount[3] > 0:
			level = 3
		case lvlCount[2] > 0:
			level = 2
		default:
			return nil, fmt.Errorf("storage: document too shallow to shard (no elements below the root)")
		}
	}
	if level < 2 {
		return nil, fmt.Errorf("storage: partition level %d < 2 (the root cannot be partitioned)", level)
	}

	sp := &ShardSplit{
		Docs:           make([][]byte, shards),
		Dictionary:     dict.names,
		PartitionLevel: level,
		SubtreeCounts:  make([]int, shards),
	}
	bufs := make([][]byte, shards)
	for i := range bufs {
		bufs[i] = make([]byte, 0, len(src)/shards+256)
	}

	// Pass 2: route events. curShard >= 0 while inside a partitioned
	// subtree. Partition parents (level P-1) are watched for mixed
	// content.
	type parentState struct {
		text bool   // emitted a text child
		part bool   // emitted a partitioned element child
		name []byte // a view of src
	}
	var (
		curShard = -1
		parents  []parentState // stack of partition-parent states, one per open level P-1 element
	)
	depth = 0
	appendOpen := func(dst []byte, ev *xmlparser.Event) []byte {
		dst = append(dst, '<')
		dst = append(dst, ev.Name...)
		for _, a := range ev.Attrs {
			dst = append(dst, ' ')
			dst = append(dst, a.Name...)
			dst = append(dst, '=', '"')
			dst = xmlparser.EscapeAttr(dst, a.Value)
			dst = append(dst, '"')
		}
		return append(dst, '>')
	}
	p = xmlparser.NewParser(src)
	err = p.Parse(func(ev *xmlparser.Event) error {
		switch ev.Kind {
		case xmlparser.EventStartElement:
			depth++
			switch {
			case curShard >= 0:
				bufs[curShard] = appendOpen(bufs[curShard], ev)
			case depth == level:
				s := sp.Subtrees % shards
				sp.Subtrees++
				sp.SubtreeCounts[s]++
				curShard = s
				bufs[s] = appendOpen(bufs[s], ev)
				if len(parents) > 0 {
					parents[len(parents)-1].part = true
				}
			default:
				for i := range bufs {
					bufs[i] = appendOpen(bufs[i], ev)
				}
				if depth == level-1 {
					parents = append(parents, parentState{name: ev.Name})
				}
			}
		case xmlparser.EventEndElement:
			switch {
			case curShard >= 0:
				bufs[curShard] = append(append(append(bufs[curShard], '<', '/'), ev.Name...), '>')
				if depth == level {
					curShard = -1
				}
			default:
				if depth == level-1 {
					ps := parents[len(parents)-1]
					parents = parents[:len(parents)-1]
					if ps.text && ps.part {
						return fmt.Errorf("storage: mixed content in <%s> at partition level %d-1: text and subtree children interleave across shards", ps.name, level)
					}
				}
				for i := range bufs {
					bufs[i] = append(append(append(bufs[i], '<', '/'), ev.Name...), '>')
				}
			}
			depth--
		case xmlparser.EventText:
			if curShard >= 0 {
				bufs[curShard] = xmlparser.EscapeText(bufs[curShard], ev.Text)
				return nil
			}
			// Spine text: shard 0 owns it (fusion reads the spine from
			// shard 0, so the value survives exactly once).
			bufs[0] = xmlparser.EscapeText(bufs[0], ev.Text)
			if depth == level-1 && len(parents) > 0 {
				parents[len(parents)-1].text = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sp.Docs = bufs
	return sp, nil
}

// LoadSharded splits src into `shards` documents (SplitXML) and
// compresses each into its own Store, all sharing the split's global
// name dictionary. Shards build in parallel under opts.Parallelism;
// the per-shard container pipeline runs serially inside each shard so
// the worker budget is not squared. Deterministic for any worker count.
func LoadSharded(src []byte, shards int, opts LoadOptions) ([]*Store, *ShardSplit, error) {
	sp, err := SplitXML(src, shards, 0)
	if err != nil {
		return nil, nil, err
	}
	shardOpts := opts
	shardOpts.Dictionary = sp.Dictionary
	shardOpts.Parallelism = 1
	stores := make([]*Store, shards)
	par := opts.Parallelism
	err = xpar.ForEach(par, shards, func(i int) error {
		st, err := Load(sp.Docs[i], shardOpts)
		if err != nil {
			return fmt.Errorf("storage: building shard %d: %w", i, err)
		}
		stores[i] = st
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return stores, sp, nil
}
