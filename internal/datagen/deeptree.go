package datagen

import "math/rand"

// DeepTreeConfig controls the pathological-shape generator: a document
// whose element nesting is a long recursive spine rather than the
// shallow, bushy shape XMark produces. Sweeps over the succinct
// structure degrade (or break) in different places on the two shapes —
// deep spines stress the excess arithmetic, the stacks of open nodes and
// scans for closes many 1024-bit blocks on, bushy levels stress sibling
// runs — so property tests run over both.
type DeepTreeConfig struct {
	Depth  int // length of the recursive spine (default 512)
	Fanout int // max leaf children attached per spine level (default 3)
	Seed   int64
}

// DeepTree generates a document with one root whose children alternate
// between the next spine element and random bushy leaves: text leaves,
// attribute-bearing leaves, and tiny two-level combs. Tag names cycle
// through a small set so the dictionary stays realistic.
func DeepTree(cfg DeepTreeConfig) []byte {
	if cfg.Depth <= 0 {
		cfg.Depth = 512
	}
	if cfg.Fanout < 0 {
		cfg.Fanout = 0
	} else if cfg.Fanout == 0 {
		cfg.Fanout = 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tags := []string{"sa", "sb", "sc", "sd"}
	leaves := []string{"la", "lb", "lc"}

	b := append([]byte(nil), "<deep>"...)
	open := make([]string, 0, cfg.Depth)
	for d := 0; d < cfg.Depth; d++ {
		for f := rng.Intn(cfg.Fanout + 1); f > 0; f-- {
			leaf := leaves[rng.Intn(len(leaves))]
			switch rng.Intn(3) {
			case 0: // empty element
				b = append(b, '<')
				b = append(b, leaf...)
				b = append(b, "/>"...)
			case 1: // text leaf
				b = append(b, '<')
				b = append(b, leaf...)
				b = append(b, '>')
				b = appendInt(b, rng.Intn(10000), 0)
				b = append(b, "</"...)
				b = append(b, leaf...)
				b = append(b, '>')
			default: // attribute-bearing comb
				b = append(b, '<')
				b = append(b, leaf...)
				b = append(b, ` k="`...)
				b = appendInt(b, rng.Intn(100), 0)
				b = append(b, `"><lx/></`...)
				b = append(b, leaf...)
				b = append(b, '>')
			}
		}
		tag := tags[d%len(tags)]
		b = append(b, '<')
		b = append(b, tag...)
		b = append(b, '>')
		open = append(open, tag)
	}
	b = append(b, "<leaf>bottom</leaf>"...)
	for d := len(open) - 1; d >= 0; d-- {
		b = append(b, "</"...)
		b = append(b, open[d]...)
		b = append(b, '>')
	}
	return append(b, "</deep>"...)
}
