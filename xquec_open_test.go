package xquec_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"xquec"
	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
)

// TestRepositoryFormatGolden checks the file format through the public
// API: the scale-0.05 repository that Compress writes hashes to the
// "xmark-0.05-seed1" entry of testdata/ingest_golden.json — the one
// format pin, recorded by TestIngestGolden, which hashes each blob as
// "<len>:" then its bytes — and OpenBytes then Bytes re-saves it byte
// for byte.
func TestRepositoryFormatGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/ingest_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	want, ok := golden["xmark-0.05-seed1"]
	if !ok {
		t.Fatal("no golden hash recorded for xmark-0.05-seed1")
	}
	hash := func(b []byte) string {
		h := sha256.New()
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
		return hex.EncodeToString(h.Sum(nil))
	}
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 1})
	db, err := xquec.Compress(doc, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	saved := db.Bytes()
	if got := hash(saved); got != want {
		t.Fatalf("repository hash = %s (%d bytes), golden %s", got, len(saved), want)
	}
	re, err := xquec.OpenBytes(saved)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), saved) {
		t.Fatal("reopened repository re-saves to different bytes")
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

// openBytesBudget bounds the bytes one xquec.Open of the scale-2
// repository allocates: 3.24 MB with the extents cut from one arena and
// the structure section decompressed into one exact-size buffer, 4.04 MB
// when each extent grew by append and the decompressor by doubling. The
// bound is 1.1 times the former; under -race the open allocates 3.42 MB.
const openBytesBudget = 3_550_000

// TestOpenAllocationBudget keeps the open path linear in sections, not
// in records or nodes: the scale-2 XMark repository (39 k records, 60 k
// nodes) once cost 326 k allocations to open, one per record plus the
// re-validation's iterators. A per-record or per-node allocation creeping
// back in breaks the budget several times over. Growth garbage — an
// extent or a decode buffer regrown by append — breaks the byte budget.
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
	open := func() {
		if _, err := xquec.Open(path); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, open)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const opens = 3
	for range opens {
		open()
	}
	runtime.ReadMemStats(&after)
	perOpen := (after.TotalAlloc - before.TotalAlloc) / opens
	t.Logf("xquec.Open: %.0f allocations, %d bytes", allocs, perOpen)
	if allocs > 20_000 {
		t.Fatalf("xquec.Open made %.0f allocations, budget 20000", allocs)
	}
	if perOpen > openBytesBudget {
		t.Fatalf("xquec.Open allocated %d bytes, budget %d", perOpen, openBytesBudget)
	}
}

// TestHostileCountsAreCorruptRepository: counts read from the file must
// be bounded before they size an allocation, and the refusal must be the
// typed error. Both inputs once panicked with "makeslice: len/cap out of
// range" — the source-model count in LoadBinary, and the token count
// inside an ALM model. The header carries the magic this build writes,
// and each error must name its guard, so a case cannot pass by stopping
// at an earlier check.
func TestHostileCountsAreCorruptRepository(t *testing.T) {
	db, err := xquec.Compress([]byte("<a/>"), xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	saved := db.Bytes()
	magic := saved[:bytes.IndexByte(saved, '\n')+1]
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint 2^56-1
	head := append(append([]byte(nil), magic...), 0, 0)            // original size 0, no names
	cases := []struct {
		name, guard string
		body        []byte
	}{
		{"source models", "source model count", append(append([]byte(nil), head...), huge...)},
		{"alm tokens", "cannot hold", append(append(append([]byte(nil), head...),
			1, 1, 'g', 3, 'a', 'l', 'm', byte(len(huge))), huge...)},
	}
	for _, c := range cases {
		data := binary.BigEndian.AppendUint32(c.body, crc32.ChecksumIEEE(c.body))
		_, err := xquec.OpenBytes(data)
		if !errors.Is(err, xquec.ErrCorruptRepository) {
			t.Errorf("%s: OpenBytes err = %v, want ErrCorruptRepository", c.name, err)
		} else if !strings.Contains(err.Error(), c.guard) {
			t.Errorf("%s: OpenBytes err = %v, want the %q guard", c.name, err, c.guard)
		}
	}
}
