package xquec_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"testing"

	"xquec"
	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
)

// TestRepositoryFormatGolden pins the bytes of one repository: the
// SHA-256 below was computed at the commit before the open path became a
// single pass, so a change to it means the file format moved.
func TestRepositoryFormatGolden(t *testing.T) {
	const want = "aa2b3984d35f36c332489d8575995eef7ffe578f6d0639d988bff3108f4accfa"
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 1})
	db, err := xquec.Compress(doc, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	saved := db.Bytes()
	if got := fmt.Sprintf("%x", sha256.Sum256(saved)); got != want {
		t.Fatalf("repository SHA-256 = %s (%d bytes), want %s", got, len(saved), want)
	}
	re, err := xquec.OpenBytes(saved)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(re.Bytes())); got != want {
		t.Fatalf("re-saved repository SHA-256 = %s, want %s", got, want)
	}
}

// TestReopenedAnswersIdentically: every benchmark query answers the
// same, and the footprint is the same, on a reopened repository as on
// the ingested one — reopened from bytes with OpenBytes, after which the
// caller scribbles over the buffer it passed ("succinct"), and from a
// file with Open ("records"). The arms keep the names of the structure
// backends they ran under until the record backend left the binary, so
// the subtest IDs stay stable.
func TestReopenedAnswersIdentically(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 1})
	db, err := xquec.Compress(doc, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := append(xmarkq.Queries(), xmarkq.ExtendedQueries()...)
	answer := func(db *xquec.Database, q string) string {
		t.Helper()
		res, err := db.Execute(context.Background(), q, xquec.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		out, err := xquec.ResultXML(res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	reopen := map[string]func(t *testing.T) (*xquec.Database, error){
		"succinct": func(*testing.T) (*xquec.Database, error) {
			buf := db.Bytes()
			re, err := xquec.OpenBytes(buf)
			clear(buf)
			return re, err
		},
		"records": func(t *testing.T) (*xquec.Database, error) {
			path := filepath.Join(t.TempDir(), "r.xqc")
			if err := db.SaveFile(path); err != nil {
				return nil, err
			}
			return xquec.Open(path)
		},
	}
	for arm, open := range reopen {
		t.Run(arm, func(t *testing.T) {
			re, err := open(t)
			if err != nil {
				t.Fatal(err)
			}
			if re.Footprint() != db.Footprint() {
				t.Errorf("footprint after reopen %v, ingested %v", re.Footprint(), db.Footprint())
			}
			for _, q := range queries {
				if got, want := answer(re, q.Text), answer(db, q.Text); got != want {
					t.Errorf("%s: reopened repository answers differently\n got: %.200q\nwant: %.200q", q.ID, got, want)
				}
			}
		})
	}
}

// TestOpenAllocationBudget keeps the open path linear in sections, not
// in records or nodes: the scale-2 XMark repository (39 k records, 60 k
// nodes) once cost 326 k allocations to open, one per record plus the
// re-validation's iterators. A per-record or per-node allocation creeping
// back in breaks the budget several times over.
func TestOpenAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2 MB corpus")
	}
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 2, Seed: 1})
	db, err := xquec.Compress(doc, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "auction.xqc")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := xquec.Open(path); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("xquec.Open: %.0f allocations", allocs)
	if allocs > 20_000 {
		t.Fatalf("xquec.Open made %.0f allocations, budget 20000", allocs)
	}
}

// TestHostileCountsAreCorruptRepository: counts read from the file must
// be bounded before they size an allocation, and the refusal must be the
// typed error. Both inputs once panicked with "makeslice: len/cap out of
// range" — the source-model count in LoadBinary, and the token count
// inside an ALM model.
func TestHostileCountsAreCorruptRepository(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint 2^56-1
	head := []byte("XQCR3\n\x00\x00")                              // original size 0, no names
	cases := map[string][]byte{
		"source models": append(append([]byte(nil), head...), huge...),
		"alm tokens": append(append(append([]byte(nil), head...),
			1, 1, 'g', 3, 'a', 'l', 'm', byte(len(huge))), huge...),
	}
	for name, body := range cases {
		data := binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
		_, err := xquec.OpenBytes(data)
		if !errors.Is(err, xquec.ErrCorruptRepository) {
			t.Errorf("%s: OpenBytes err = %v, want ErrCorruptRepository", name, err)
		}
	}
}
