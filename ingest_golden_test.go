package xquec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
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
	build func(par int) ([][]byte, error)
}

func compressBytes(doc []byte, opts Options) ([][]byte, error) {
	db, err := Compress(doc, opts)
	if err != nil {
		return nil, err
	}
	return [][]byte{db.Bytes()}, nil
}

// setBytes serializes a partitioned database: every member repository,
// then the fused view.
func setBytes(db *Database) [][]byte {
	var out [][]byte
	for _, st := range db.memberStores() {
		out = append(out, st.AppendBinary(nil))
	}
	return append(out, db.Bytes())
}

func goldenCases() []goldenCase {
	xmark := func(scale float64, seed int64) []byte {
		return datagen.XMark(datagen.XMarkConfig{Scale: scale, Seed: seed})
	}
	plain := func(name string, doc []byte) goldenCase {
		return goldenCase{name, func(par int) ([][]byte, error) {
			return compressBytes(doc, Options{Parallelism: par})
		}}
	}
	small := xmark(0.25, 11)
	cases := []goldenCase{
		plain("xmark-0.25-seed11", small),
		plain("xmark-1-seed11", xmark(1, 11)),
		plain("xmark-1-seed12", xmark(1, 12)),
		plain("shakespeare", datagen.Shakespeare(400_000, 3)),
		plain("washington-course", datagen.WashingtonCourse(300_000, 4)),
		plain("baseball", datagen.Baseball(200_000, 5)),
		plain("deeptree", datagen.DeepTree(datagen.DeepTreeConfig{Depth: 700, Seed: 6})),
		plain("entities", []byte(entityDoc)),
		{"random-records", func(par int) ([][]byte, error) {
			rng := rand.New(rand.NewSource(17))
			var out [][]byte
			for i := 0; i < 12; i++ {
				b, err := compressBytes(datagen.RandomRecords(rng), Options{Parallelism: par})
				if err != nil {
					return nil, err
				}
				out = append(out, b...)
			}
			return out, nil
		}},
	}
	for _, alg := range []string{storage.AlgHuffman, storage.AlgHuTucker} {
		cases = append(cases, goldenCase{"plan-default-" + alg, func(par int) ([][]byte, error) {
			return compressBytes(small, Options{Parallelism: par, Plan: &CompressionPlan{DefaultAlgorithm: alg}})
		}})
	}
	var texts []string
	for _, q := range xmarkq.Queries() {
		texts = append(texts, q.Text)
	}
	frag := xmark(0.016, 21)
	cases = append(cases,
		goldenCase{"plan-from-workload", func(par int) ([][]byte, error) {
			return compressBytes(small, Options{Parallelism: par, WorkloadQueries: texts})
		}},
		goldenCase{"dictionary-preseed", func(par int) ([][]byte, error) {
			base, err := storage.Load(small, storage.LoadOptions{Parallelism: par})
			if err != nil {
				return nil, err
			}
			seeded := append(append([]string(nil), base.Names...), "never-seen", "@nor-this")
			st, err := storage.Load(frag, storage.LoadOptions{Parallelism: par, Dictionary: seeded})
			if err != nil {
				return nil, err
			}
			return [][]byte{st.AppendBinary(nil)}, nil
		}},
		goldenCase{"shards-4", func(par int) ([][]byte, error) {
			db, err := Compress(small, Options{Parallelism: par, Shards: 4})
			if err != nil {
				return nil, err
			}
			return setBytes(db), nil
		}},
		goldenCase{"append-compact", func(par int) ([][]byte, error) {
			db, err := Compress(small, Options{Parallelism: par})
			if err != nil {
				return nil, err
			}
			w, err := NewWriter(db, Options{Parallelism: par})
			if err != nil {
				return nil, err
			}
			for _, f := range [][]byte{frag, xmark(0.016, 22), []byte(`<site><people><person id="p&amp;q"><name>N &lt; M</name></person></people></site>`)} {
				if err := w.Append(f); err != nil {
					return nil, err
				}
			}
			grown, err := w.Commit()
			if err != nil {
				return nil, err
			}
			out := setBytes(grown)
			compacted, err := w.Compact(context.Background())
			if err != nil {
				return nil, err
			}
			return append(out, compacted.Bytes()), nil
		}},
	)
	return cases
}

// TestIngestGolden pins the bytes of every kind of ingest — recorded at
// the commit before the loader stopped building a record tree — at every
// worker count: a change to the parser, the loader, the trainers or the
// container build that moves one bit of a repository fails here.
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
	for _, par := range pars {
		for _, c := range cases {
			blobs, err := c.build(par)
			if err != nil {
				t.Fatalf("%s (p=%d): %v", c.name, par, err)
			}
			h := sha256.New()
			for _, b := range blobs {
				fmt.Fprintf(h, "%d:", len(b))
				h.Write(b)
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
