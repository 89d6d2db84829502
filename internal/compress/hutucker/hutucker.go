// Package hutucker implements the Hu–Tucker optimal alphabetic
// (order-preserving) binary code. The paper (§2.1) cites Hu–Tucker as the
// order-preserving alternative that ALM was measured against; we provide
// it both as a usable codec and as the ablation baseline for the
// "ALM outperforms Hu-Tucker" claim.
//
// The alphabet is EOS < 0x00 < 0x01 < ... < 0xff (257 symbols); every
// value is terminated with EOS, which sorts below every byte, so
// bytewise comparison of encoded values equals lexicographic comparison
// of plaintexts — including the proper-prefix case ("ab" < "abc").
//
// Training runs the combination and level phases; the third, rebuilding
// the alphabetic tree from the levels, is the alphabetic bitio.PrefixCode:
// codes handed out in symbol order are that tree's codes, and levels that
// form no such tree fail to load.
package hutucker

import (
	"xquec/internal/compress"
	"xquec/internal/compress/bitio"
)

func init() {
	compress.RegisterLoader("hutucker", func(data []byte) (compress.Codec, error) {
		return loadModel(data)
	})
}

// Codec is a trained Hu-Tucker coder: an alphabetic bitio.PrefixCode,
// which encodes, decodes and persists the levels. Safe for concurrent use.
type Codec struct{ *bitio.PrefixCode }

// Trainer builds Hu-Tucker codecs from sample values.
type Trainer struct{}

// Name implements compress.Trainer.
func (Trainer) Name() string { return "hutucker" }

// Train implements compress.Trainer.
func (Trainer) Train(values [][]byte) (compress.Codec, error) { return Train(values) }

// Train builds a Codec from sample values.
func Train(values [][]byte) (*Codec, error) {
	code, err := bitio.TrainPrefixCode("hutucker", values, true, combineAndLevel)
	if err != nil {
		return nil, err
	}
	return &Codec{code}, nil
}

func loadModel(data []byte) (*Codec, error) {
	code, err := bitio.NewPrefixCode("hutucker", data, true)
	if err != nil {
		return nil, err
	}
	return &Codec{code}, nil
}

// htNode is a working node of the combination phase.
type htNode struct {
	weight uint64
	leaf   bool
	index  int // original symbol index for leaves
	left   *htNode
	right  *htNode
}

// combineAndLevel runs phase 1 (minimum compatible pair combination) and
// phase 2 (level assignment) of the Hu-Tucker algorithm, returning the
// level (code length) of each symbol in alphabet order.
func combineAndLevel(freq []uint64) []uint8 {
	nodes := make([]*htNode, len(freq))
	for i, f := range freq {
		nodes[i] = &htNode{weight: f, leaf: true, index: i}
	}
	// Two nodes are compatible if no *leaf* node lies strictly between
	// them in the working sequence. Repeatedly merge the compatible pair
	// with minimal combined weight (ties: leftmost i, then leftmost j).
	for len(nodes) > 1 {
		bestI, bestJ := -1, -1
		var bestW uint64
		for i := 0; i < len(nodes)-1; i++ {
			for j := i + 1; j < len(nodes); j++ {
				w := nodes[i].weight + nodes[j].weight
				if bestI < 0 || w < bestW {
					bestI, bestJ, bestW = i, j, w
				}
				if nodes[j].leaf {
					break // a leaf blocks compatibility past position j
				}
			}
		}
		merged := &htNode{weight: bestW, left: nodes[bestI], right: nodes[bestJ]}
		nodes[bestI] = merged
		nodes = append(nodes[:bestJ], nodes[bestJ+1:]...)
	}
	levels := make([]uint8, len(freq))
	var walk func(n *htNode, depth uint8)
	walk = func(n *htNode, depth uint8) {
		if n.leaf {
			levels[n.index] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(nodes[0], 0)
	return levels
}

// Name implements compress.Codec.
func (c *Codec) Name() string { return "hutucker" }

// Props implements compress.Codec. The alphabetic code is fully
// order-preserving, so equality, inequality and prefix matching all work
// on encoded bytes.
func (c *Codec) Props() compress.Properties {
	return compress.Properties{Eq: true, Wild: true, OrderPreserving: true}
}

// DecodeCost implements compress.Codec: slightly worse than Huffman
// because alphabetic codes are a bit longer on average. Measured vs huffman = 1.0: 119.27 vs 154.20
// MB/s (EXPERIMENTS.md "Re-derived DecodeCost constants",
// `go test -run '^$' -bench 'BenchmarkCodecDecode' -benchmem .`).
func (c *Codec) DecodeCost() float64 { return 1.293 }
