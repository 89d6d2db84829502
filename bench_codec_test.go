// Codec kernel microbenchmarks: raw encode/decode MB/s per string
// codec, measured directly at the compress.Codec level on a realistic
// XMark prose container. The measured decode ratios are the provenance
// of the DecodeCost constants in internal/costmodel (EXPERIMENTS.md
// "Re-derived DecodeCost constants"); regenerate them with
// `go test -run '^$' -bench 'BenchmarkCodecDecode' -benchmem .`.
package xquec

import (
	"sync"
	"testing"

	"xquec/internal/compress"
	"xquec/internal/compress/alm"
	"xquec/internal/compress/blob"
	"xquec/internal/compress/huffman"
	"xquec/internal/compress/hutucker"
	"xquec/internal/datagen"
	"xquec/internal/storage"
)

// codecBenchValues extracts the plaintext values of the XMark
// description container once per test binary: a prose-heavy corpus
// representative of what the entropy coders see during ingestion.
var codecBenchValues = sync.OnceValue(func() [][]byte {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: benchScale, Seed: corpusSeed})
	s, err := storage.Load(doc, storage.LoadOptions{
		Plan: &storage.CompressionPlan{DefaultAlgorithm: storage.AlgBlob},
	})
	if err != nil {
		panic(err)
	}
	c, ok := s.ContainerByPath("/site/open_auctions/open_auction/annotation/description/text/#text")
	if !ok {
		panic("missing description container")
	}
	values := make([][]byte, c.Len())
	for i := range values {
		v, err := c.Decode(nil, i)
		if err != nil {
			panic(err)
		}
		values[i] = v
	}
	return values
})

// codecBenchTrainers lists the string codecs the kernel benchmarks
// cover, in costmodel.Algorithms order.
var codecBenchTrainers = []compress.Trainer{
	alm.Trainer{},
	huffman.Trainer{},
	hutucker.Trainer{},
	blob.Trainer{},
}

// BenchmarkCodecEncode measures per-codec encode throughput (MB/s of
// plaintext consumed) over the corpus, reusing one destination buffer
// so the codec kernel — not the allocator — is what is measured.
func BenchmarkCodecEncode(b *testing.B) {
	values := codecBenchValues()
	for _, tr := range codecBenchTrainers {
		b.Run(tr.Name(), func(b *testing.B) {
			codec, err := tr.Train(values)
			if err != nil {
				b.Fatal(err)
			}
			plain := 0
			for _, v := range values {
				plain += len(v)
			}
			var dst []byte
			b.SetBytes(int64(plain))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, v := range values {
					if dst, err = codec.Encode(dst[:0], v); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCodecDecode measures per-codec decode throughput (MB/s of
// plaintext produced) over the pre-encoded corpus.
func BenchmarkCodecDecode(b *testing.B) {
	values := codecBenchValues()
	for _, tr := range codecBenchTrainers {
		b.Run(tr.Name(), func(b *testing.B) {
			codec, err := tr.Train(values)
			if err != nil {
				b.Fatal(err)
			}
			encs := make([][]byte, len(values))
			plain := 0
			for i, v := range values {
				enc, err := codec.Encode(nil, v)
				if err != nil {
					b.Fatal(err)
				}
				encs[i] = enc
				plain += len(v)
			}
			var dst []byte
			b.SetBytes(int64(plain))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, enc := range encs {
					if dst, err = codec.Decode(dst[:0], enc); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
