package storage

import (
	"bytes"
	"slices"
	"testing"

	"xquec/internal/datagen"
)

// loadBoth ingests the same document into both structure backends.
func loadBoth(t *testing.T, doc []byte) (rec, suc *Store) {
	t.Helper()
	var err error
	rec, err = Load(doc, LoadOptions{Structure: StructRecords})
	if err != nil {
		t.Fatalf("Load(records): %v", err)
	}
	suc, err = Load(doc, LoadOptions{Structure: StructSuccinct})
	if err != nil {
		t.Fatalf("Load(succinct): %v", err)
	}
	return rec, suc
}

// assertStoresEqual compares every structural accessor answer over
// every node of the two stores.
func assertStoresEqual(t *testing.T, rec, suc *Store) {
	t.Helper()
	if rec.NumNodes() != suc.NumNodes() {
		t.Fatalf("NumNodes: records=%d succinct=%d", rec.NumNodes(), suc.NumNodes())
	}
	for id := NodeID(1); int(id) <= rec.NumNodes(); id++ {
		if a, b := rec.Parent(id), suc.Parent(id); a != b {
			t.Fatalf("Parent(%d): records=%d succinct=%d", id, a, b)
		}
		if a, b := rec.SubtreeEnd(id), suc.SubtreeEnd(id); a != b {
			t.Fatalf("SubtreeEnd(%d): records=%d succinct=%d", id, a, b)
		}
		if a, b := rec.LevelOf(id), suc.LevelOf(id); a != b {
			t.Fatalf("LevelOf(%d): records=%d succinct=%d", id, a, b)
		}
		if a, b := rec.TagCodeOf(id), suc.TagCodeOf(id); a != b {
			t.Fatalf("TagCodeOf(%d): records=%d succinct=%d", id, a, b)
		}
		if a, b := rec.HasText(id), suc.HasText(id); a != b {
			t.Fatalf("HasText(%d): records=%v succinct=%v", id, a, b)
		}
		var ka, kb []Kid
		for k := range rec.Kids(id) {
			ka = append(ka, k)
		}
		for k := range suc.Kids(id) {
			kb = append(kb, k)
		}
		if !slices.Equal(ka, kb) {
			t.Fatalf("Kids(%d): records=%v succinct=%v", id, ka, kb)
		}
	}
	ra, err := rec.Serialize(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := suc.Serialize(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra, rb) {
		t.Fatal("Serialize(root) differs between backends")
	}
	da, err := rec.DeepText(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := suc.DeepText(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatal("DeepText(root) differs between backends")
	}
}

// TestCrossBackendEquivalence: the two structure encodings must answer
// every accessor identically and serialize to identical bytes.
func TestCrossBackendEquivalence(t *testing.T) {
	docs := map[string][]byte{
		"tiny":  []byte(tinyDoc),
		"xmark": datagen.XMark(datagen.XMarkConfig{Scale: 0.002, Seed: 7}),
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			rec, suc := loadBoth(t, doc)
			assertStoresEqual(t, rec, suc)
			if !bytes.Equal(rec.AppendBinary(nil), suc.AppendBinary(nil)) {
				t.Fatal("AppendBinary bytes differ between resident backends")
			}
		})
	}
}

// TestPersistRoundTripBothModes: a saved repository must load into
// either backend equivalent to the original — every accessor answer,
// the Validate oracle, the footprint model, and the re-serialized bytes
// — for a bushy, a deep and a mixed-content document.
func TestPersistRoundTripBothModes(t *testing.T) {
	docs := map[string][]byte{
		"xmark": datagen.XMark(datagen.XMarkConfig{Scale: 0.002, Seed: 11}),
		"deep":  datagen.DeepTree(datagen.DeepTreeConfig{Depth: 300, Seed: 3}),
		"mixed": []byte(`<doc id="1">lead <b>bold</b> middle <i a="x">it<u>deep</u>al</i> tail<e/><n>42</n><n>7</n> end</doc>`),
		// Two decimal scales (and a repeat of each): one group per codec,
		// or the second scale reopens under the first's model.
		"scales": []byte(`<r><a>1.25</a><a>2.50</a><b>1.250</b><b>3.125</b><c>0.75</c><d>0.001</d><e>0.5</e></r>`),
	}
	for name, doc := range docs {
		rec, suc := loadBoth(t, doc)
		blob := rec.AppendBinary(nil)
		for _, mode := range []StructureKind{StructRecords, StructSuccinct} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				t.Setenv("XQUEC_STRUCT", mode.String())
				s2, err := LoadBinary(bytes.Clone(blob))
				if err != nil {
					t.Fatalf("LoadBinary: %v", err)
				}
				if s2.StructureKind() != mode {
					t.Fatalf("backend = %v", s2.StructureKind())
				}
				if err := s2.Validate(); err != nil {
					t.Fatalf("Validate: %v", err)
				}
				assertStoresEqual(t, rec, s2)
				want := rec
				if mode == StructSuccinct {
					want = suc
				}
				if got := s2.Footprint(); got != want.Footprint() {
					t.Fatalf("footprint after reload %v, ingested %v", got, want.Footprint())
				}
				if !bytes.Equal(blob, s2.AppendBinary(nil)) {
					t.Fatal("re-serialization differs")
				}
			})
		}
	}
}

// TestSuccinctStructureMemory: the BP self-index must shrink the
// structure encoding — the tree shape and its navigation support,
// excluding the tag/value-ref labels both backends carry verbatim —
// by at least 10x against the record arrays.
func TestSuccinctStructureMemory(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 3})
	rec, suc := loadBoth(t, doc)
	fr, fs := rec.Footprint(), suc.Footprint()
	nLeaves := len(suc.succ.valIdx)
	// Record-backend shape encoding: kid arrays (StructureTree minus the
	// 2 B/node tags and 8 B/leaf value refs) + parent/end/level + B+.
	labels := 2*rec.NumNodes() + 8*nLeaves
	recShape := (fr.StructureTree - labels) + fr.ParentPointers + fr.BPlusIndex
	sucShape := fs.StructureBP
	if recShape < 10*sucShape {
		t.Fatalf("shape encoding: records=%d succinct=%d (<10x)", recShape, sucShape)
	}
	bpBits, markBits, treeNodes := suc.StructureStats()
	if treeNodes != suc.NumNodes()+nLeaves {
		t.Fatalf("treeNodes = %d, want %d", treeNodes, suc.NumNodes()+nLeaves)
	}
	// The BP proper (paren bits + directories + rmM tree) must stay
	// within ~3 bits per tree node; the node marks add ~1 more.
	if bpn := float64(bpBits) / float64(treeNodes); bpn > 3 {
		t.Fatalf("BP bits/node = %.2f, want <= 3", bpn)
	}
	if mbn := float64(markBits) / float64(treeNodes); mbn > 2 {
		t.Fatalf("mark bits/node = %.2f, want <= 2", mbn)
	}
}
