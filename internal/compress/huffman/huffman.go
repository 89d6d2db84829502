// Package huffman implements the classical (static, character-level)
// Huffman coder XQueC uses as its order-agnostic string compressor
// (§2.1). Codes are canonical, so a source model is fully described by
// the code length of each symbol.
//
// Every value is terminated by an out-of-band EOS symbol before coding.
// This makes the coded form self-delimiting and injective: two distinct
// plaintexts always differ at a bit position that is a real code bit in
// both encodings, so equality — and prefix matching — can be evaluated
// directly on the packed compressed bytes (eq = true, wild = true,
// ineq = false in the paper's capability triple).
package huffman

import (
	"bytes"
	"container/heap"

	"xquec/internal/compress"
	"xquec/internal/compress/bitio"
)

func init() {
	compress.RegisterLoader("huffman", func(data []byte) (compress.Codec, error) {
		return loadModel(data)
	})
}

// Codec is a trained Huffman coder: a canonical bitio.PrefixCode, which
// encodes, decodes and persists the model. It is safe for concurrent use.
type Codec struct{ *bitio.PrefixCode }

// Trainer builds Huffman codecs from sample values.
type Trainer struct{}

// Name implements compress.Trainer.
func (Trainer) Name() string { return "huffman" }

// Train builds a canonical Huffman code from the byte frequencies of the
// sample values (plus one EOS per value).
func (Trainer) Train(values [][]byte) (compress.Codec, error) {
	return Train(values)
}

// Train builds a Codec from sample values.
func Train(values [][]byte) (*Codec, error) {
	code, err := bitio.TrainPrefixCode("huffman", values, false, codeLengths)
	if err != nil {
		return nil, err
	}
	return &Codec{code}, nil
}

func loadModel(data []byte) (*Codec, error) {
	code, err := bitio.NewPrefixCode("huffman", data, false)
	if err != nil {
		return nil, err
	}
	return &Codec{code}, nil
}

// huffNode / huffHeap implement the classic two-queue-free heap build.
type huffNode struct {
	freq        uint64
	symbol      int // -1 for internal
	left, right *huffNode
}

type huffHeap []*huffNode

func (h huffHeap) Len() int { return len(h) }
func (h huffHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	// Tie-break on symbol for determinism.
	return h[i].symbol < h[j].symbol
}
func (h huffHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *huffHeap) Push(x interface{}) { *h = append(*h, x.(*huffNode)) }
func (h *huffHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// codeLengths computes the Huffman code length of each symbol.
func codeLengths(freq []uint64) []uint8 {
	h := make(huffHeap, 0, len(freq))
	for s, fq := range freq {
		h = append(h, &huffNode{freq: fq, symbol: s})
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*huffNode)
		b := heap.Pop(&h).(*huffNode)
		heap.Push(&h, &huffNode{freq: a.freq + b.freq, symbol: -1, left: a, right: b})
	}
	root := h[0]
	lengths := make([]uint8, len(freq))
	var walk func(n *huffNode, depth uint8)
	walk = func(n *huffNode, depth uint8) {
		if n.symbol >= 0 {
			lengths[n.symbol] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return lengths
}

// Name implements compress.Codec.
func (c *Codec) Name() string { return "huffman" }

// Props implements compress.Codec.
func (c *Codec) Props() compress.Properties {
	return compress.Properties{Eq: true, Wild: true, OrderPreserving: false}
}

// DecodeCost implements compress.Codec. Huffman is the normalization
// baseline (1.0) of the measured costs (EXPERIMENTS.md "Re-derived
// DecodeCost constants", `go test -run '^$' -bench 'BenchmarkCodecDecode' -benchmem .`);
// even table-driven, entropy decode is slower than whole-token coders.
func (c *Codec) DecodeCost() float64 { return 1.0 }

// MatchesPrefix reports whether the encoded value enc starts with the
// given packed bit prefix.
func MatchesPrefix(enc, prefixBits []byte, nbits int) bool {
	if nbits > 8*len(enc) {
		return false
	}
	full := nbits / 8
	if !bytes.Equal(enc[:full], prefixBits[:full]) {
		return false
	}
	rem := nbits % 8
	if rem == 0 {
		return true
	}
	mask := byte(0xff << (8 - uint(rem)))
	return enc[full]&mask == prefixBits[full]&mask
}
