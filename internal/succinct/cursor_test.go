package succinct_test

import (
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/succinct"
)

// TestAscendingTextSweepSelectsNothing: after its first lookup, a run's
// text cursor walks an ascending sweep over the person names of an XMark
// document (scale 1) forward from one name to the next — Text, TextRefs,
// HasText and SoleText alike — and never falls back on Select1.
func TestAscendingTextSweepSelectsNothing(t *testing.T) {
	s, err := storage.Load(datagen.XMark(datagen.XMarkConfig{Scale: 1, Seed: 1}), storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	names := s.Sum.Lookup("/site/people/person/name")
	if names == nil || len(names.Extent) < 500 || !names.Shape().Sole {
		t.Fatal("want a sole-text person/name with hundreds of instances")
	}
	var c storage.TextCursor
	var buf []byte
	var refs []storage.ValueRef
	lookups := []struct {
		name string
		of   func(storage.NodeID) error
	}{
		{"Text", func(id storage.NodeID) (err error) { buf, err = s.Text(&c, buf[:0], id); return err }},
		{"SoleText", func(id storage.NodeID) (err error) { buf, err = s.SoleText(&c, buf[:0], id); return err }},
		{"TextRefs", func(id storage.NodeID) error { refs = s.TextRefs(&c, refs[:0], id); return nil }},
		{"HasText", func(id storage.NodeID) error { s.HasText(&c, id); return nil }},
	}
	for _, l := range lookups {
		c = storage.TextCursor{}
		if err := l.of(names.Extent[0]); err != nil {
			t.Fatal(err)
		}
		succinct.CountSelect1(true)
		for _, id := range names.Extent[1:] {
			if err := l.of(id); err != nil {
				succinct.CountSelect1(false)
				t.Fatal(err)
			}
		}
		n := succinct.Select1Calls()
		succinct.CountSelect1(false)
		if n != 0 {
			t.Errorf("%s: %d Select1 calls over %d ascending names after the first", l.name, n, len(names.Extent)-1)
		}
	}
}
