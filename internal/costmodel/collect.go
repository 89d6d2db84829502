package costmodel

import (
	"bytes"
	"strings"

	"xquec/internal/compress/numeric"
	"xquec/internal/xmlparser"
)

// MaxSampleValues bounds the per-container sample used for measuring
// algorithm behaviour and similarity.
const MaxSampleValues = 512

// CollectContainers parses an XML document and gathers the
// ContainerInfo of every textual value path (Infos).
func CollectContainers(src []byte) ([]ContainerInfo, error) {
	var paths []string
	var values [][][]byte
	index := map[string]int{}
	var path []string
	record := func(p string, value []byte, decoded bool) {
		i, ok := index[p]
		if !ok {
			i = len(paths)
			index[p] = i
			paths, values = append(paths, p), append(values, nil)
		}
		if decoded {
			value = bytes.Clone(value) // the parser's buffer is overwritten by the next event
		}
		values[i] = append(values[i], value)
	}
	parser := xmlparser.NewParser(src)
	err := parser.Parse(func(ev *xmlparser.Event) error {
		switch ev.Kind {
		case xmlparser.EventStartElement:
			path = append(path, string(ev.Name))
			for _, attr := range ev.Attrs {
				record("/"+strings.Join(path, "/")+"/@"+string(attr.Name), attr.Value, attr.Decoded)
			}
		case xmlparser.EventEndElement:
			path = path[:len(path)-1]
		case xmlparser.EventText:
			record("/"+strings.Join(path, "/")+"/#text", ev.Text, ev.Decoded)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return Infos(paths, values), nil
}

// Infos builds the ContainerInfo of every *textual* value path from its
// values in document order, the paths in the order their first values
// appear — whether the values come from parsing a document or from a
// store's containers (a compaction's search runs on those). Typed
// containers — ints, dates, decimals, floats — are left out: the loader
// always uses the typed order-preserving codecs for them, so they are
// outside the §3 search, which the paper likewise restricts to "the set
// of non-numerical (textual) containers". The samples are views of
// values.
func Infos(paths []string, values [][][]byte) []ContainerInfo {
	var infos []ContainerInfo
	for i, p := range paths {
		vals := values[i]
		n := min(len(vals), MaxSampleValues)
		info := ContainerInfo{Path: p, Count: len(vals), Sample: vals[:n:n]}
		for _, v := range vals {
			info.TotalBytes += len(v)
		}
		if !isTyped(info.Sample) {
			infos = append(infos, info)
		}
	}
	return infos
}

// isTyped mirrors the loader's type inference: containers whose values
// all round-trip through a typed codec are outside the textual search.
func isTyped(sample [][]byte) bool {
	if len(sample) == 0 {
		return false
	}
	if _, err := (numeric.IntTrainer{}).Train(sample); err == nil {
		return true
	}
	if _, err := (numeric.DateTrainer{}).Train(sample); err == nil {
		return true
	}
	if _, err := (numeric.DecimalTrainer{}).Train(sample); err == nil {
		return true
	}
	if _, err := (numeric.FloatTrainer{}).Train(sample); err == nil {
		return true
	}
	return false
}

// Restrict keeps only the containers referenced by the workload — §3's
// footnote 5: containers not involved in any query incur no cost and are
// left out of the search (the loader will compress them with the
// default).
func Restrict(infos []ContainerInfo, paths []string) []ContainerInfo {
	want := map[string]bool{}
	for _, p := range paths {
		want[p] = true
	}
	var out []ContainerInfo
	for _, ci := range infos {
		if want[ci.Path] {
			out = append(out, ci)
		}
	}
	return out
}
