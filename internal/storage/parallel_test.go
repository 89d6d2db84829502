package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/xpar"
)

// TestParallelLoadDeterministic is the pipeline's core contract: any
// worker count (GOMAXPROCS) produces a byte-identical persisted
// repository.
func TestParallelLoadDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	plans := map[string]*CompressionPlan{
		"default":  nil,
		"huffman":  {DefaultAlgorithm: AlgHuffman},
		"hutucker": {DefaultAlgorithm: AlgHuTucker},
	}
	for _, scale := range []float64{0.02, 0.08} {
		doc := datagen.XMark(datagen.XMarkConfig{Scale: scale, Seed: 1234})
		for name, plan := range plans {
			t.Run(fmt.Sprintf("scale=%g/%s", scale, name), func(t *testing.T) {
				runtime.GOMAXPROCS(1)
				serial, err := Load(doc, LoadOptions{Plan: plan})
				if err != nil {
					t.Fatal(err)
				}
				want := serial.AppendBinary(nil)
				for _, par := range []int{2, 4, 8} {
					runtime.GOMAXPROCS(par)
					s, err := Load(doc, LoadOptions{Plan: plan})
					if err != nil {
						t.Fatalf("p=%d: %v", par, err)
					}
					if got := s.AppendBinary(nil); !bytes.Equal(got, want) {
						t.Fatalf("p=%d repository differs from serial build: %d vs %d bytes",
							par, len(got), len(want))
					}
				}
			})
		}
	}
}

// TestForEachIndexCoversAll checks, at the worker counts the loader's
// fan-outs use, that xpar.ForEach runs every index exactly once.
func TestForEachIndexCoversAll(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		var hits [n]int32
		var mu sync.Mutex
		err := xpar.ForEach(workers, n, func(i int) error {
			mu.Lock()
			hits[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestForEachIndexFirstError checks that an error in a loader fan-out
// cancels the remaining work and is the one xpar.ForEach returns.
func TestForEachIndexFirstError(t *testing.T) {
	boom := fmt.Errorf("boom")
	for _, workers := range []int{1, 4} {
		var ran atomicCounter
		err := xpar.ForEach(workers, 10_000, func(i int) error {
			ran.add(1)
			if i == 37 {
				return boom
			}
			return nil
		})
		if err != boom {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if n := ran.load(); n == 10_000 {
			t.Errorf("workers=%d: no cancellation — all %d items ran", workers, n)
		}
	}
}

type atomicCounter struct {
	mu sync.Mutex
	n  int
}

func (c *atomicCounter) add(d int) { c.mu.Lock(); c.n += d; c.mu.Unlock() }
func (c *atomicCounter) load() int { c.mu.Lock(); defer c.mu.Unlock(); return c.n }

// TestConcurrentContainerReads hammers every read-path entry point of
// every container from many goroutines; run under -race this verifies
// the repository really is immutable after Load.
func TestConcurrentContainerReads(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 99})
	s, err := Load(doc, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf, dst []byte
			for _, c := range s.Containers {
				n := c.Len()
				if n == 0 {
					continue
				}
				for i := g % 3; i < n; i += 3 {
					var err error
					buf, err = c.Decode(buf[:0], i)
					if err != nil {
						t.Errorf("Decode(%s, %d): %v", c.Path, i, err)
						return
					}
					dst, err = c.Decode(dst[:0], i)
					if err != nil || !bytes.Equal(dst, buf) {
						t.Errorf("Decode(%s, %d) into a reused buffer = %q, %v; want %q", c.Path, i, dst, err, buf)
						return
					}
					plain := append([]byte(nil), buf...)
					m, err := c.FindEq(plain)
					if err != nil {
						t.Errorf("FindEq(%s, %q): %v", c.Path, plain, err)
						return
					}
					if m.Count() == 0 {
						t.Errorf("FindEq(%s, %q) found nothing", c.Path, plain)
						return
					}
					if lo, hi, err := c.FindRange(plain, true, plain, true); err != nil || lo == hi {
						t.Errorf("FindRange(%s, %q) = [%d, %d), %v", c.Path, plain, lo, hi, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDecodeScratchZeroAlloc asserts the read path's claim: once a
// reused scratch buffer has grown to a container's largest value,
// decoding into it allocates nothing.
func TestDecodeScratchZeroAlloc(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 7})
	for name, plan := range map[string]*CompressionPlan{
		"alm":      nil,
		"huffman":  {DefaultAlgorithm: AlgHuffman},
		"hutucker": {DefaultAlgorithm: AlgHuTucker},
	} {
		s, err := Load(doc, LoadOptions{Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range s.Containers {
			if c.Len() == 0 {
				continue
			}
			var dst []byte
			// Warm the buffer to the container's largest value.
			for i := 0; i < c.Len(); i++ {
				if dst, err = c.Decode(dst[:0], i); err != nil {
					t.Fatalf("%s/%s: %v", name, c.Path, err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				for i := 0; i < c.Len(); i++ {
					if dst, err = c.Decode(dst[:0], i); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%s: container %s (%s): %.1f allocs per decode sweep, want 0",
					name, c.Path, c.Codec().Name(), allocs)
			}
		}
	}
}
