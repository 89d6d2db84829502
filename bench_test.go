// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5) and the numeric claims in its text. Each benchmark
// logs the reproduced rows (run with -v) and exercises the same code
// paths as cmd/benchrun; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured numbers.
//
// The benchmark corpus sizes are scaled down from the paper's (which
// used up to 46 MB documents and an 11.3 MB XMark instance) so the
// whole suite runs in seconds; cmd/benchrun reproduces the full-size
// runs.
package xquec

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/engine"
	"xquec/internal/experiments"
	"xquec/internal/storage"
	"xquec/internal/vm"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
)

const benchScale = 1.0 // ≈1 MB XMark documents for the in-test runs

// runOnStore parses q, compiles it against s and starts one serial run
// of the program: the whole way a query goes, for a timed region to hold.
func runOnStore(s *storage.Store, q string) (*engine.Result, error) {
	expr, err := xquery.Parse(q)
	if err != nil {
		return nil, err
	}
	prog, err := vm.Compile(expr, s, q)
	if err != nil {
		return nil, err
	}
	return prog.Run(vm.RunOptions{Parallelism: 1})
}

// BenchmarkTable1Datasets regenerates Table 1: the characteristics of
// the experimental corpora.
func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRows(b, rows)
		}
	}
}

// BenchmarkFigure6LeftCompressionFactors regenerates Figure 6 (left):
// average CF over the real-life corpus substitutes for XMill, XGrind,
// XPRESS and XQueC.
func BenchmarkFigure6LeftCompressionFactors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure6Left()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRows(b, rows)
		}
	}
}

// BenchmarkFigure6RightXMarkCF regenerates Figure 6 (right): CF across
// XMark document sizes.
func BenchmarkFigure6RightXMarkCF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure6Right([]float64{0.5, benchScale, 2})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRows(b, rows)
		}
	}
}

// BenchmarkFigure7QueryTimes regenerates Figure 7 (plus the Q8/Q9
// numbers quoted in the text): query execution times of XQueC vs the
// Galax-like baseline.
func BenchmarkFigure7QueryTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7(benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRows(b, rows)
		}
	}
}

// BenchmarkFigure4Q14Access regenerates the §2.3/Figure 4 contrast:
// bytes visited answering Q14 on each system.
func BenchmarkFigure4Q14Access(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4Q14(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRows(b, rows)
		}
	}
}

// BenchmarkSection22StorageFootprint regenerates the §2.2 numbers:
// overall CF, summary share of the document, access-structure overhead.
func BenchmarkSection22StorageFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Section22([]float64{benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRows(b, rows)
		}
	}
}

// BenchmarkSection33PartitioningExample regenerates the §3.3 example:
// NaiveConf (one shared ALM model) vs the greedy search's GoodConf.
func BenchmarkSection33PartitioningExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Section33(1500)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRows(b, rows)
		}
	}
}

// BenchmarkValueShare regenerates the §1 claim that values make up
// 70–80% of XML documents.
func BenchmarkValueShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ValueShare()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRows(b, rows)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks for the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------

// BenchmarkAblationCodecs compares the string codecs on one prose
// container: compression ratio is logged, decode speed is the measured
// metric (§2.1: ALM decompresses faster than the entropy coders).
func BenchmarkAblationCodecs(b *testing.B) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: benchScale, Seed: experiments.Seed})
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
	doc := datagen.XMark(datagen.XMarkConfig{Scale: benchScale, Seed: experiments.Seed})
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
	doc := datagen.XMark(datagen.XMarkConfig{Scale: benchScale, Seed: experiments.Seed})
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
	doc := datagen.XMark(datagen.XMarkConfig{Scale: benchScale, Seed: experiments.Seed})
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
			doc := datagen.XMark(datagen.XMarkConfig{Scale: scale, Seed: experiments.Seed})
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
	doc := datagen.XMark(datagen.XMarkConfig{Scale: benchScale, Seed: experiments.Seed})
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

func logRows(b *testing.B, rows []experiments.Row) {
	b.Helper()
	for _, r := range rows {
		b.Log(r.String())
	}
}
