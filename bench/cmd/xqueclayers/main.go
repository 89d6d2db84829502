// Command xqueclayers times single kernels of the internal packages on
// one XML document and prints the per-layer metrics they give as one
// JSON object. xquecload runs it at the end of a traced run. It is a
// separate program because it is the only part of the benchmark that
// calls below the public xquec API: if a later change to those packages
// breaks it, the end-to-end runs still build.
//
//	xqueclayers corpus.xml
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xmlparser"
)

const reps = 5

// typical is the median wall time of reps calls of f.
func typical(f func()) time.Duration {
	d := make([]time.Duration, reps)
	for i := range d {
		start := time.Now()
		f()
		d[i] = time.Since(start)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[reps/2]
}

func mbPerS(bytes int, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

// tagExtent is every element with the given tag, in document order.
func tagExtent(s *storage.Store, tag string) algebra.NodeSet {
	code, ok := s.Code(tag)
	if !ok {
		return nil
	}
	var out algebra.NodeSet
	s.ScanNodes(func(id storage.NodeID, _ uint16) {
		if s.TagCodeOf(id) == code {
			out = append(out, id)
		}
	})
	return out
}

// largest is the container of the given codec holding the most
// compressed bytes.
func largest(s *storage.Store, codec func(name string) bool) *storage.Container {
	var out *storage.Container
	for _, c := range s.Containers {
		if codec(c.Codec().Name()) && (out == nil || c.CompressedBytes() > out.CompressedBytes()) {
			out = c
		}
	}
	return out
}

// decodeAll decodes every record of c and returns the plain values.
func decodeAll(c *storage.Container) (plain [][]byte, bytes int, err error) {
	for i := 0; i < c.Len(); i++ {
		v, err := c.Decode(nil, i)
		if err != nil {
			return nil, 0, err
		}
		plain, bytes = append(plain, v), bytes+len(v)
	}
	return plain, bytes, nil
}

// decodeRate is the plain megabytes per second of decoding c.
func decodeRate(c *storage.Container) (float64, error) {
	if c == nil {
		return 0, fmt.Errorf("no container of that codec in the corpus")
	}
	_, bytes, err := decodeAll(c)
	if err != nil {
		return 0, err
	}
	var buf []byte
	d := typical(func() {
		for i := 0; i < c.Len(); i++ {
			buf, _ = c.Decode(buf[:0], i)
		}
	})
	return mbPerS(bytes, d), nil
}

func probes(doc []byte) (map[string]float64, error) {
	m := map[string]float64{}

	events := 0
	d := typical(func() {
		xmlparser.NewParser(doc).Parse(func(*xmlparser.Event) error { events++; return nil })
	})
	if events == 0 {
		return nil, fmt.Errorf("the document has no events")
	}
	m["xmlparser.sax_mb_s"] = mbPerS(len(doc), d)

	s, err := storage.Load(doc, storage.LoadOptions{})
	if err != nil {
		return nil, err
	}
	n := s.NumNodes()
	ids, out := make([]storage.NodeID, n), make([]storage.NodeID, n)
	for i := range ids {
		ids[i] = storage.NodeID(i + 1) // node IDs start at 1
	}
	m["succinct.parent_ns_per_node"] = float64(typical(func() { s.ParentBulk(ids, out) })) / float64(n)
	m["succinct.subtree_end_ns_per_node"] = float64(typical(func() { s.SubtreeEndBulk(ids, out) })) / float64(n)

	site, items, names := tagExtent(s, "site"), tagExtent(s, "item"), tagExtent(s, "name")
	var got int
	d = typical(func() { got = len(algebra.Descendants(s, site, items)) })
	if got != len(items) || got == 0 {
		return nil, fmt.Errorf("Descendants kept %d of %d items", got, len(items))
	}
	m["algebra.descendants_mnodes_s"] = float64(got) / 1e6 / d.Seconds()
	d = typical(func() { got = len(algebra.SemiJoinAncestor(s, items, names)) })
	if got != len(items) {
		return nil, fmt.Errorf("SemiJoinAncestor kept %d of %d items", got, len(items))
	}
	m["algebra.semijoin_mnodes_s"] = float64(len(items)+len(names)) / 1e6 / d.Seconds()

	const streams, perStream = 4, 250_000
	d = typical(func() {
		var h algebra.KWayHeap[int]
		next := make([]uint64, streams)
		for i := range next {
			next[i] = uint64(i)
			h.Push(next[i], i)
		}
		h.Init()
		for h.Len() > 0 {
			_, i := h.Min()
			if next[i] += streams; next[i] < streams*perStream {
				h.ReplaceMin(next[i], i)
			} else {
				h.PopMin()
			}
		}
	})
	m["algebra.kway_merge_ns_per_item"] = float64(d) / (streams * perStream)

	is := func(names ...string) func(string) bool {
		return func(n string) bool {
			for _, want := range names {
				if n == want {
					return true
				}
			}
			return false
		}
	}
	alm := largest(s, is(storage.AlgALM))
	if m["compress.alm_decode_mb_s"], err = decodeRate(alm); err != nil {
		return nil, fmt.Errorf("alm: %w", err)
	}
	plain, bytes, _ := decodeAll(alm)
	var buf []byte
	d = typical(func() {
		for _, v := range plain {
			buf, _ = alm.Encode(buf[:0], v)
		}
	})
	m["compress.alm_encode_mb_s"] = mbPerS(bytes, d)
	numeric := largest(s, is(storage.AlgInt, storage.AlgFloat, storage.AlgDecimal, storage.AlgDate))
	if m["compress.numeric_decode_mb_s"], err = decodeRate(numeric); err != nil {
		return nil, fmt.Errorf("numeric: %w", err)
	}
	// The default plan compresses strings with ALM only; the other two
	// string codecs get a repository of their own.
	for _, alg := range []string{storage.AlgHuffman, storage.AlgHuTucker} {
		s, err := storage.Load(doc, storage.LoadOptions{Plan: &storage.CompressionPlan{DefaultAlgorithm: alg}})
		if err != nil {
			return nil, err
		}
		if m["compress."+alg+"_decode_mb_s"], err = decodeRate(largest(s, is(alg))); err != nil {
			return nil, fmt.Errorf("%s: %w", alg, err)
		}
	}
	return m, nil
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: xqueclayers corpus.xml")
		os.Exit(2)
	}
	doc, err := os.ReadFile(os.Args[1])
	if err == nil {
		var m map[string]float64
		if m, err = probes(doc); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(m)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqueclayers:", err)
		os.Exit(1)
	}
}
