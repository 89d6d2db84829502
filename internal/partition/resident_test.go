package partition

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/storage"
)

var storeType = reflect.TypeOf((*storage.Store)(nil))

// storesIn adds to found every *storage.Store reachable from v without
// passing through one.
func storesIn(v reflect.Value, found, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		if v.Type() == storeType {
			found[v.Pointer()] = true
			return
		}
		storesIn(v.Elem(), found, seen)
	case reflect.Interface:
		storesIn(v.Elem(), found, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			storesIn(v.Field(i), found, seen)
		}
	case reflect.Slice, reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
			for i := 0; i < v.Len(); i++ {
				storesIn(v.Index(i), found, seen)
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			storesIn(it.Value(), found, seen)
		}
	}
}

// TestSetHoldsOneStore: the segments are files and the fused store is
// the database, so after each of Open, Build, Append, Compact and Save a
// set reaches exactly one store — its own — whatever its segment count.
func TestSetHoldsOneStore(t *testing.T) {
	check := func(op string, set *Set) {
		t.Helper()
		found := map[uintptr]bool{}
		storesIn(reflect.ValueOf(set), found, map[uintptr]bool{})
		if len(found) != 1 || !found[reflect.ValueOf(set.Store()).Pointer()] {
			t.Fatalf("after %s a set of %d segments holds %d stores, want its one store", op, len(set.segs), len(found))
		}
	}
	built, err := Build(xmarkDoc(t), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("Build", built)
	appended, _, err := built.Append([][]byte{datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 7})}, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("Append", appended)
	path := filepath.Join(t.TempDir(), "corpus"+SegmentManifestExt)
	if err := appended.Save(path); err != nil {
		t.Fatal(err)
	}
	check("Save", appended)
	opened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	check("Open", opened)
	compacted, err := opened.Compact(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	check("Compact", compacted)
}

// fuseEvery is the reference an incremental fusion is held to: one
// storage.Fusion over every part (spliceSegments), the corpus's original
// size set as a set sets it.
func fuseEvery(t *testing.T, parts []*storage.Store, originalSize int) []byte {
	t.Helper()
	st, err := spliceSegments(parts)
	if err != nil {
		t.Fatal(err)
	}
	st.OriginalSize = originalSize
	return st.AppendBinary(nil)
}

// checkIncremental holds set's store, built by one Append after another,
// to one fusion of all its segments, read back from the bytes the set
// keeps for them.
func checkIncremental(t *testing.T, name string, set *Set) {
	t.Helper()
	parts := make([]*storage.Store, len(set.segs))
	for i, g := range set.segs {
		st, err := storage.LoadBinary(g.data)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = st
	}
	if got, want := set.Store().AppendBinary(nil), fuseEvery(t, parts, set.OriginalSize()); !bytes.Equal(got, want) {
		t.Fatalf("%s: the store of %d appends (%d bytes) differs from one fusion of every part (%d bytes)", name, len(parts), len(got), len(want))
	}
}

// TestIncrementalFusionEqualsWhole: Append fuses the set's store with
// the new segments only, and that equals, byte for byte, fusing every
// part at once — over the cuts TestCutResultsIdentical queries, appended
// one part at a time, and over a chain of 20 appends whose last carries
// entity references.
func TestIncrementalFusionEqualsWhole(t *testing.T) {
	doc := xmarkDoc(t)
	for _, n := range []int{1, 2, 4, 8} {
		parts, err := Cut(doc, n)
		if err != nil {
			t.Fatal(err)
		}
		set, err := NewBase(mustLoad(t, string(parts[0]), nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range parts[1:] {
			if set, _, err = set.Append([][]byte{part}, nil); err != nil {
				t.Fatal(err)
			}
		}
		checkIncremental(t, fmt.Sprintf("cut n=%d", n), set)
	}

	set, err := NewBase(mustLoad(t, string(doc), nil))
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 20; k++ {
		frag := datagen.XMark(datagen.XMarkConfig{Scale: 0.005, Seed: int64(100 + k)})
		if k == 20 {
			frag = []byte(`<site><people><person id="p&amp;q"><name>N &lt; M</name></person></people></site>`)
		}
		if set, _, err = set.Append([][]byte{frag}, nil); err != nil {
			t.Fatal(err)
		}
		checkIncremental(t, fmt.Sprintf("chain of %d appends", k), set)
	}
}
