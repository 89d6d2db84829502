package xquec_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/storage"
)

// BenchmarkStoreText is the immediate-text lookup by node ID at XMark
// scale 8, per lookup: through a run's cursor (storage.TextCursor) and
// cold, over the person names in document order and shuffled; and, over
// the names and the item description texts, the one value of a sole-text
// summary node found directly (SoleText) next to the leaf walk Text takes. Every
// text-bearing path of the generated XMark is sole-text, so the walk's
// cost where the flag fails shows on the description elements: no text of
// their own, and a text child the walk steps over whole.
func BenchmarkStoreText(b *testing.B) {
	s, err := storage.Load(datagen.XMark(datagen.XMarkConfig{Scale: 8, Seed: 1}), storage.LoadOptions{})
	if err != nil {
		b.Fatal(err)
	}
	// summary lists the summary nodes whose path starts with prefix and
	// ends with suffix (prefix//suffix, or one exact path twice).
	summary := func(prefix, suffix string) []*storage.SummaryNode {
		var out []*storage.SummaryNode
		for _, sn := range s.Sum.Nodes() {
			if p := sn.Path(); strings.HasPrefix(p, prefix) && strings.HasSuffix(p, suffix) {
				out = append(out, sn)
			}
		}
		return out
	}
	extent := func(sns []*storage.SummaryNode) []storage.NodeID {
		var ids []storage.NodeID
		for _, sn := range sns {
			ids = append(ids, sn.Extent...)
		}
		slices.Sort(ids)
		return ids
	}
	names := extent(summary("/site/people/person/name", "/site/people/person/name"))
	textNodes := summary("/site/regions/", "/item/description/text")
	texts := extent(textNodes)
	descs := extent(summary("/site/regions/", "/item/description"))
	sole := len(textNodes) > 0
	for _, sn := range textNodes {
		sole = sole && sn.Shape().Sole
	}
	if len(names) == 0 || len(texts) == 0 || !sole {
		b.Fatal("want person names and sole-text description texts")
	}
	shuffled := slices.Clone(names)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	type lookup func(c *storage.TextCursor, dst []byte, id storage.NodeID) ([]byte, error)
	for _, bc := range []struct {
		name   string
		ids    []storage.NodeID
		cursor bool
		of     lookup
	}{
		{"name/ascending/cursor", names, true, s.Text},
		{"name/ascending/cold", names, false, s.Text},
		{"name/ascending/sole", names, true, s.SoleText},
		{"name/random/cursor", shuffled, true, s.Text},
		{"name/random/cold", shuffled, false, s.Text},
		{"description-text/sole", texts, true, s.SoleText},
		{"description-text/walk", texts, true, s.Text},
		{"description/walk", descs, true, s.Text},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				var c storage.TextCursor
				cur := &c
				if !bc.cursor {
					cur = nil
				}
				for _, id := range bc.ids {
					if buf, err = bc.of(cur, buf[:0], id); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bc.ids)), "ns/lookup")
		})
	}
}
