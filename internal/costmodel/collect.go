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

// CollectContainers parses an XML document and gathers the ContainerInfo
// of every *textual* value path (typed containers — ints, dates,
// decimals, floats — are excluded: the loader always uses the typed
// order-preserving codecs for them, so they are outside the §3 search,
// which the paper likewise restricts to "the set of non-numerical
// (textual) containers").
func CollectContainers(src []byte) ([]ContainerInfo, error) {
	type acc struct {
		info  ContainerInfo
		order int
	}
	accs := map[string]*acc{}
	var path []string
	order := 0
	record := func(p string, value []byte) {
		a := accs[p]
		if a == nil {
			a = &acc{info: ContainerInfo{Path: p}, order: order}
			order++
			accs[p] = a
		}
		a.info.Count++
		a.info.TotalBytes += len(value)
		if len(a.info.Sample) < MaxSampleValues {
			a.info.Sample = append(a.info.Sample, bytes.Clone(value))
		}
	}
	parser := xmlparser.NewParser(src)
	err := parser.Parse(func(ev *xmlparser.Event) error {
		switch ev.Kind {
		case xmlparser.EventStartElement:
			path = append(path, string(ev.Name))
			for _, attr := range ev.Attrs {
				record("/"+strings.Join(path, "/")+"/@"+string(attr.Name), attr.Value)
			}
		case xmlparser.EventEndElement:
			path = path[:len(path)-1]
		case xmlparser.EventText:
			record("/"+strings.Join(path, "/")+"/#text", ev.Text)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	infos := make([]ContainerInfo, 0, len(accs))
	ordered := make([]*acc, 0, len(accs))
	for _, a := range accs {
		ordered = append(ordered, a)
	}
	// Restore first-appearance order for determinism.
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].order < ordered[j-1].order; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	for _, a := range ordered {
		if isTyped(a.info.Sample) {
			continue
		}
		infos = append(infos, a.info)
	}
	return infos, nil
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
