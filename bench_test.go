// Ablation benchmarks for the design choices DESIGN.md calls out, and
// the ingest, open and decode benchmarks over the same XMark corpus. The
// paper's own tables and figures are in paper_test.go.
package xquec

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
)

const benchScale = 1.0 // ≈1 MB XMark documents for the in-test runs

// corpusSeed fixes every generated corpus of the root tests and benchmarks.
const corpusSeed = 2004

// runOnStore parses q, compiles it against s and starts one serial run
// of the program: the whole way a query goes, for a timed region to hold.
func runOnStore(s *storage.Store, q string) (*engine.Result, error) {
	expr, err := xquery.Parse(q)
	if err != nil {
		return nil, err
	}
	prog, err := engine.Compile(expr, s, q)
	if err != nil {
		return nil, err
	}
	return prog.Run(context.Background())
}

// ---------------------------------------------------------------------
// Ablation benchmarks for the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------

// BenchmarkAblationCodecs compares the string codecs on one prose
// container: compression ratio is logged, decode speed is the measured
// metric (§2.1: ALM decompresses faster than the entropy coders).
func BenchmarkAblationCodecs(b *testing.B) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: benchScale, Seed: corpusSeed})
	for _, alg := range []string{storage.AlgALM, storage.AlgHuffman, storage.AlgHuTucker} {
		alg := alg
		b.Run(alg, func(b *testing.B) {
			s, err := storage.Load(doc, storage.LoadOptions{
				Plan: &storage.CompressionPlan{DefaultAlgorithm: alg},
			})
			if err != nil {
				b.Fatal(err)
			}
			c, ok := s.ContainerByPath("/site/open_auctions/open_auction/annotation/description/text/#text")
			if !ok {
				b.Fatal("missing description container")
			}
			plain := 0
			var buf []byte
			for i := 0; i < c.Len(); i++ {
				buf, err = c.Decode(buf[:0], i)
				if err != nil {
					b.Fatal(err)
				}
				plain += len(buf)
			}
			b.Logf("%s: container %d values, %d compressed / %d plain bytes (CF %.2f)",
				alg, c.Len(), c.CompressedBytes(), plain,
				1-float64(c.CompressedBytes())/float64(plain))
			b.SetBytes(int64(plain))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < c.Len(); j++ {
					if buf, err = c.Decode(buf[:0], j); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationJoinStrategy compares the Q8 IDREF join with and
// without a shared source model: shared models enable the compressed
// merge join, separate models force the decompressing hash join.
func BenchmarkAblationJoinStrategy(b *testing.B) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: benchScale, Seed: corpusSeed})
	shared := &storage.CompressionPlan{
		Groups: map[string][]string{
			"refs": {
				"/site/people/person/@id",
				"/site/closed_auctions/closed_auction/buyer/@person",
			},
		},
		Algorithms: map[string]string{"refs": storage.AlgALM},
	}
	for _, cfg := range []struct {
		name string
		plan *storage.CompressionPlan
	}{{"separate-models-hashjoin", nil}, {"shared-model-mergejoin", shared}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			s, err := storage.Load(doc, storage.LoadOptions{Plan: cfg.plan})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runOnStore(s, xmarkq.Q8)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := res.WriteXML(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSummaryAccess contrasts answering an absolute path
// via the structure summary's extents (XQueC's strategy) against
// navigating the structure tree from the root.
func BenchmarkAblationSummaryAccess(b *testing.B) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: benchScale, Seed: corpusSeed})
	s, err := storage.Load(doc, storage.LoadOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("summary-extents", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := runOnStore(s, `count(/site/people/person/name)`)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.WriteXML(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("navigational", func(b *testing.B) {
		// Forcing navigation: bind the root first so every step walks
		// the structure tree instead of reading summary extents.
		for i := 0; i < b.N; i++ {
			res, err := runOnStore(s, `FOR $r IN /site RETURN count($r/people/person/name)`)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.WriteXML(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompressXMark measures the loader/compressor throughput at
// several worker counts; p=1 is the serial baseline the pipeline's
// speedup is judged against.
func BenchmarkCompressXMark(b *testing.B) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: benchScale, Seed: corpusSeed})
	for _, par := range []int{1, 2, 4} {
		par := par
		b.Run(fmt.Sprintf("p=%d", par), func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				if _, err := storage.Load(doc, storage.LoadOptions{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpen measures opening a saved repository — the cost under
// every pool miss, daemon start and shard/segment part: ns/op and
// allocs/op of xquec.Open, with the file size as the byte count so the
// MB/s column is the load rate of the file.
func BenchmarkOpen(b *testing.B) {
	for _, scale := range []float64{2, 8} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			doc := datagen.XMark(datagen.XMarkConfig{Scale: scale, Seed: corpusSeed})
			db, err := Compress(doc, Options{})
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "auction.xqc")
			if err := db.SaveFile(path); err != nil {
				b.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(fi.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Open(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeScratch measures steady-state per-value decode through
// the pooled scratch API; with -benchmem the expected allocation count
// is zero for every codec.
func BenchmarkDecodeScratch(b *testing.B) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: benchScale, Seed: corpusSeed})
	for _, alg := range []string{storage.AlgALM, storage.AlgHuffman, storage.AlgHuTucker} {
		alg := alg
		b.Run(alg, func(b *testing.B) {
			s, err := storage.Load(doc, storage.LoadOptions{
				Plan: &storage.CompressionPlan{DefaultAlgorithm: alg},
			})
			if err != nil {
				b.Fatal(err)
			}
			c, ok := s.ContainerByPath("/site/open_auctions/open_auction/annotation/description/text/#text")
			if !ok {
				b.Fatal("missing description container")
			}
			sc := storage.NewScratch()
			defer sc.Release()
			bytes := 0
			for i := 0; i < c.Len(); i++ {
				v, err := c.DecodeScratch(sc, i)
				if err != nil {
					b.Fatal(err)
				}
				bytes += len(v)
			}
			b.SetBytes(int64(bytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < c.Len(); j++ {
					if _, err := c.DecodeScratch(sc, j); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
