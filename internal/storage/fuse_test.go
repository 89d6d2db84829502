package storage

import (
	"bytes"
	"math/rand"
	"testing"

	"xquec/internal/datagen"
)

// TestStringCodecsAreTotal: the container merge re-encodes one part's
// values under another part's model, which is sound only if a string
// codec encodes any value whatever it was trained on — and, for the
// order-preserving ones, in plaintext order, so that every part's run is
// sorted alike under every model.
func TestStringCodecsAreTotal(t *testing.T) {
	sample := [][]byte{[]byte("aaa"), []byte("abab"), []byte("ba"), []byte("abba")}
	values := [][]byte{
		{}, {0}, {0, 0, 0}, {0xff}, {0xff, 0xff, 0xff, 0xff}, {0, 0xff}, {0xff, 0},
		[]byte("a"), []byte("ab"), []byte("aba"), []byte("abab"), []byte("ababa"), []byte("b"), []byte("zzz\x00q"),
		[]byte("a\xff"), []byte("a\x00"), []byte("The quick brown fox"), []byte("\xc3\xbf~"),
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 200; i++ {
		v := make([]byte, rng.Intn(12))
		rng.Read(v)
		values = append(values, v)
	}
	for _, alg := range []string{AlgALM, AlgHuffman, AlgHuTucker, AlgBlob} {
		codec, err := trainers[alg].Train(sample)
		if err != nil {
			t.Fatal(err)
		}
		encs := make([][]byte, len(values))
		for i, v := range values {
			if encs[i], err = codec.Encode(nil, v); err != nil {
				t.Fatalf("%s refuses %q: %v", alg, v, err)
			}
			if back, err := codec.Decode(nil, encs[i]); err != nil || !bytes.Equal(back, v) {
				t.Fatalf("%s: %q comes back as %q (%v)", alg, v, back, err)
			}
		}
		if !codec.Props().OrderPreserving {
			continue
		}
		for i, x := range values {
			for j, y := range values {
				if bytes.Compare(encs[i], encs[j]) != bytes.Compare(x, y) {
					t.Fatalf("%s: %q vs %q compare %d, their encodings %d", alg, x, y, bytes.Compare(x, y), bytes.Compare(encs[i], encs[j]))
				}
			}
		}
	}
}

// TestFusionIsProven builds the concatenation of two documents from
// pieces and holds it to the slow oracle, then hands Fusion the pieces
// in a wrong order, twice, or cut inside a node: the sweep, not a later
// query, must be what objects.
func TestFusionIsProven(t *testing.T) {
	a, err := Load(datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 1}), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 2}), LoadOptions{Dictionary: a.Names})
	if err != nil {
		t.Fatal(err)
	}
	parts := []*Store{a, b}
	var owners []NodeID // of every record of both parts, before any fusion
	for _, p := range parts {
		for _, c := range p.Containers {
			for j := 0; j < c.Len(); j++ {
				owners = append(owners, c.Owner(j))
			}
		}
	}
	probe := NewFusion(parts)
	_, endA := probe.Span(0)
	_, endB := probe.Span(1)
	good := [][3]int{{0, 0, endA}, {1, 1, endB}, {0, endA, endA + 1}}
	fuse := func(pieces [][3]int) (*Store, error) {
		f := NewFusion(parts)
		for _, p := range pieces {
			f.Add(p[0], p[1], p[2])
		}
		return f.Store()
	}
	s, err := fuse(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if s.NumNodes() != a.NumNodes()+b.NumNodes()-1 {
		t.Fatalf("%d nodes from %d and %d", s.NumNodes(), a.NumNodes(), b.NumNodes())
	}
	for i, p := range parts {
		for _, c := range p.Containers {
			for j := 0; j < c.Len(); j++ {
				if c.Owner(j) != owners[0] {
					t.Fatalf("fusion wrote to part %d: %s record %d owner %d, was %d", i, c.Path, j, c.Owner(j), owners[0])
				}
				owners = owners[1:]
			}
		}
	}

	mid := b.succ.pv.Select1(b.succ.isNode.Select1(2)) // node 3's open
	for name, pieces := range map[string][][3]int{
		"a piece twice":            {good[0], good[1], good[1], good[2]},
		"the close first":          {good[2], good[0], good[1]},
		"no close":                 {good[0], good[1]},
		"a cut through an element": {good[0], {1, 1, mid + 1}, good[2]},
	} {
		s, err := fuse(pieces)
		if err == nil {
			err = s.Validate()
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
