package xquec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
)

var updateGolden = flag.Bool("update-ingest-golden", false, "rewrite testdata/ingest_golden.json from this build's output")

// entityDoc exercises what the generated corpora never contain: entity
// and character references in text and attribute values, CDATA joined to
// the text around it, comments and processing instructions splitting a
// text run, self-closing tags and whitespace-only text.
const entityDoc = `<?xml version="1.0"?>
<!DOCTYPE lib [<!ELEMENT lib ANY>]>
<lib owner="A &amp; B" note='say &quot;hi&quot; &#65;&#x42;'>
  <book id="b1" title="1 &lt; 2"><t>War &amp; Peace</t><p>12</p><e/></book>
  <book id="b2" title=""><t><![CDATA[<raw> & ]]>cooked &gt; done</t><p>7</p></book>
  <book id="b3"><t>split<!-- c -->run<?pi body?>again</t><p>30</p><e></e></book>
  <book id="b4"><t>caf&#233; &#x20AC;5</t><p>9</p>tail &apos;text&apos;</book>
</lib>
<!-- trailing -->
`

// goldenCase is one ingest whose serialized bytes must not change: it
// returns one blob per repository it builds.
type goldenCase struct {
	name  string
	build func() ([][]byte, error)
}

func compressBytes(doc []byte, opts Options) ([][]byte, error) {
	db, err := Compress(doc, opts)
	if err != nil {
		return nil, err
	}
	return [][]byte{db.Bytes()}, nil
}

// setBytes serializes a partitioned database: every segment file, as
// SaveFile writes it, then the fused view.
func setBytes(db *Database) ([][]byte, error) {
	dir, err := os.MkdirTemp("", "golden-set-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := db.SaveFile(filepath.Join(dir, "set.xqcg")); err != nil {
		return nil, err
	}
	var out [][]byte
	for _, name := range db.set.Segments.Segments {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		out = append(out, data)
	}
	return append(out, db.Bytes()), nil
}

// appendFrags are the documents the append cases append to the
// XMark 0.25 corpus: two XMark fragments and one whose values carry
// entity references.
func appendFrags() [][]byte {
	return [][]byte{
		datagen.XMark(datagen.XMarkConfig{Scale: 0.016, Seed: 21}),
		datagen.XMark(datagen.XMarkConfig{Scale: 0.016, Seed: 22}),
		[]byte(`<site><people><person id="p&amp;q"><name>N &lt; M</name></person></people></site>`),
	}
}

// appendCompact compresses base under opts, appends every fragment in
// one commit and compacts: the grown database and the compacted one.
func appendCompact(base []byte, frags [][]byte, opts Options) (grown, compacted *Database, err error) {
	db, err := Compress(base, opts)
	if err != nil {
		return nil, nil, err
	}
	w, err := NewWriter(db, opts)
	if err != nil {
		return nil, nil, err
	}
	for _, f := range frags {
		if err := w.Append(f); err != nil {
			return nil, nil, err
		}
	}
	if grown, err = w.Commit(); err != nil {
		return nil, nil, err
	}
	compacted, err = w.Compact(context.Background())
	return grown, compacted, err
}

func goldenCases() []goldenCase {
	xmark := func(scale float64, seed int64) []byte {
		return datagen.XMark(datagen.XMarkConfig{Scale: scale, Seed: seed})
	}
	plain := func(name string, doc []byte) goldenCase {
		return goldenCase{name, func() ([][]byte, error) {
			return compressBytes(doc, Options{})
		}}
	}
	small := xmark(0.25, 11)
	cases := []goldenCase{
		plain("xmark-0.05-seed1", xmark(0.05, 1)),
		plain("xmark-0.25-seed11", small),
		plain("xmark-1-seed11", xmark(1, 11)),
		plain("xmark-1-seed12", xmark(1, 12)),
		plain("shakespeare", datagen.Shakespeare(400_000, 3)),
		plain("washington-course", datagen.WashingtonCourse(300_000, 4)),
		plain("baseball", datagen.Baseball(200_000, 5)),
		plain("deeptree", datagen.DeepTree(datagen.DeepTreeConfig{Depth: 700, Seed: 6})),
		plain("entities", []byte(entityDoc)),
		{"random-records", func() ([][]byte, error) {
			rng := rand.New(rand.NewSource(17))
			var out [][]byte
			for i := 0; i < 12; i++ {
				b, err := compressBytes(datagen.RandomRecords(rng), Options{})
				if err != nil {
					return nil, err
				}
				out = append(out, b...)
			}
			return out, nil
		}},
	}
	for _, alg := range []string{storage.AlgHuffman, storage.AlgHuTucker} {
		cases = append(cases, goldenCase{"plan-default-" + alg, func() ([][]byte, error) {
			return compressBytes(small, Options{Plan: &CompressionPlan{DefaultAlgorithm: alg}})
		}})
	}
	var texts []string
	for _, q := range xmarkq.Queries() {
		texts = append(texts, q.Text)
	}
	frag := xmark(0.016, 21)
	cases = append(cases,
		goldenCase{"plan-from-workload", func() ([][]byte, error) {
			return compressBytes(small, Options{WorkloadQueries: texts})
		}},
		goldenCase{"dictionary-preseed", func() ([][]byte, error) {
			base, err := storage.Load(small, storage.LoadOptions{})
			if err != nil {
				return nil, err
			}
			seeded := append(append([]string(nil), base.Names...), "never-seen", "@nor-this")
			st, err := storage.Load(frag, storage.LoadOptions{Dictionary: seeded})
			if err != nil {
				return nil, err
			}
			return [][]byte{st.AppendBinary(nil)}, nil
		}},
		goldenCase{"shards-4", func() ([][]byte, error) {
			db, err := Compress(small, Options{Shards: 4})
			if err != nil {
				return nil, err
			}
			return setBytes(db)
		}},
		goldenCase{"append-compact", func() ([][]byte, error) {
			grown, compacted, err := appendCompact(small, appendFrags(), Options{})
			if err != nil {
				return nil, err
			}
			blobs, err := setBytes(grown)
			return append(blobs, compacted.Bytes()), err
		}},
		goldenCase{"append-compact-workload", func() ([][]byte, error) {
			grown, compacted, err := appendCompact(small, appendFrags(), Options{WorkloadQueries: texts})
			if err != nil {
				return nil, err
			}
			blobs, err := setBytes(grown)
			return append(blobs, compacted.Bytes()), err
		}},
	)
	return cases
}

// TestIngestGolden pins the bytes of every kind of ingest at every
// worker count — GOMAXPROCS 1, 2 and 4: a change to the parser, the
// loader, the trainers, the container build or the file format that
// moves one bit of a repository fails here. Every blob must also reopen and re-save byte for byte, so
// the format has one pin: nothing the writer emits is lost or rewritten
// by the reader.
func TestIngestGolden(t *testing.T) {
	const path = "testdata/ingest_golden.json"
	golden := map[string]string{}
	if !*updateGolden {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
	}
	pars := []int{1, 2, 4}
	if testing.Short() {
		pars = []int{2}
	}
	cases := goldenCases()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, par := range pars {
		runtime.GOMAXPROCS(par)
		for _, c := range cases {
			blobs, err := c.build()
			if err != nil {
				t.Fatalf("%s (p=%d): %v", c.name, par, err)
			}
			h := sha256.New()
			for i, b := range blobs {
				fmt.Fprintf(h, "%d:", len(b))
				h.Write(b)
				st, err := storage.LoadBinary(b)
				if err != nil {
					t.Fatalf("%s (p=%d) blob %d: reopen: %v", c.name, par, i, err)
				}
				if !bytes.Equal(st.AppendBinary(nil), b) {
					t.Errorf("%s (p=%d) blob %d: reopened repository re-saves to different bytes", c.name, par, i)
				}
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want, ok := golden[c.name]; !ok {
				if !*updateGolden {
					t.Fatalf("%s: no golden hash recorded", c.name)
				}
				golden[c.name] = got
			} else if got != want {
				t.Errorf("%s (p=%d): repository bytes changed: sha256 %s, golden %s", c.name, par, got, want)
			}
		}
	}
	if *updateGolden && !t.Failed() {
		data, _ := json.MarshalIndent(golden, "", "  ")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
