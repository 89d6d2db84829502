package storage

import (
	"encoding/binary"
	"hash/crc32"
	"iter"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"xquec/internal/compress"
	"xquec/internal/compress/blob"
	"xquec/internal/datagen"
)

// A repository file is framed twice over: the structure section is
// LZSS-compressed and the whole file ends in a CRC-32. A mutation of
// the raw file bytes therefore almost always dies at the checksum (or
// inside the decompressor) and never reaches the checks that guard the
// structure. The hostile-input tests below mutate the *unframed* form
// and re-frame it, so that every mutant arrives at the parser with a
// valid checksum and a decompressible tree.

// unframe splits a serialized repository into the bytes before the
// structure section (magic, size, dictionary, models, containers — the
// containers start at pre[contStart:]) and the decompressed structure
// section.
func unframe(t testing.TB, repo []byte) (pre, tree []byte, contStart int) {
	t.Helper()
	r := &reader{data: repo[:len(repo)-4], pos: len(magic)}
	must := func(err error) {
		if err != nil {
			t.Fatalf("unframe: %v", err)
		}
	}
	skip := func(n uint64, fields int) {
		for i := uint64(0); i < n*uint64(fields); i++ {
			_, err := r.bytes()
			must(err)
		}
	}
	_, err := r.uvarint() // original size
	must(err)
	n, err := r.uvarint()
	must(err)
	skip(n, 1) // names
	n, err = r.uvarint()
	must(err)
	skip(n, 3) // models: group, algorithm, model
	contStart = r.pos
	nConts, err := r.uvarint()
	must(err)
	for i := uint64(0); i < nConts; i++ {
		skip(1, 1) // path
		r.pos++    // kind
		_, err = r.uvarint()
		must(err)
		n, err = r.uvarint()
		must(err)
		skip(n, 1) // records
	}
	pre = repo[:r.pos]
	comp, err := r.bytes()
	must(err)
	tree, err = blob.Decompress(nil, comp)
	must(err)
	return pre, tree, contStart
}

// frame is the inverse of unframe for arbitrary section bytes.
func frame(pre, tree []byte) []byte {
	out := append([]byte(nil), pre...)
	out = compress.AppendBytes(out, blob.Compress(nil, tree))
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// checkHostile loads untrusted repository bytes and holds LoadBinary to
// its contract: an error, or a repository the slow Validate oracle also
// accepts and the serializer can walk — never a panic, and never more
// memory than the input pays for. The memory bound is linear with a
// large constant because small inputs legitimately fan out: a source
// model of a few bytes builds a few KB of codec tables, and the LZSS
// structure section expands up to ~90x. It returns the store, nil when
// the bytes were refused.
func checkHostile(t testing.TB, data []byte, what string) *Store {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := LoadBinary(data)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+4096*len(data)); got > limit {
		t.Fatalf("%s: loading %d bytes allocated %d (limit %d)", what, len(data), got, limit)
	}
	if err != nil {
		return nil
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("%s: the load pass accepted a repository the oracle rejects: %v", what, err)
	}
	// The serializing sweep checks nothing: it trusts the balance, the
	// mark count and the value refs that deriveFromSuccinct proved. So
	// on everything accepted it must run to the end, from the root and
	// from nodes inside, without a panic or an out-of-range read — a
	// decode may still fail (a value can be corrupt).
	for id := range sampledNodes(s) {
		_, _ = s.Serialize(nil, id)
		_, _ = s.DeepText(nil, id)
	}
	return s
}

// sampledNodes yields every (1+n/16)-th node and the last.
func sampledNodes(s *Store) iter.Seq[NodeID] {
	return func(yield func(NodeID) bool) {
		n := NodeID(s.NumNodes())
		for id := NodeID(1); id <= n; id += 1 + n/16 {
			if !yield(id) {
				return
			}
		}
		yield(n)
	}
}

// hostileSeeds are the corpora the mutation suite and the fuzzer start
// from: a bushy XMark document and a deep one.
func hostileSeeds(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, doc := range [][]byte{
		datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 13}),
		datagen.DeepTree(datagen.DeepTreeConfig{Depth: 200, Seed: 5}),
	} {
		s, err := Load(doc, LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s.AppendBinary(nil))
	}
	return out
}

// mutate applies one random edit to b: a byte flip, a deleted range, an
// inserted byte, or a varint blown up to an absurd count.
func mutate(rng *rand.Rand, b []byte) []byte {
	b = append([]byte(nil), b...)
	if len(b) == 0 {
		return append(b, byte(rng.Intn(256)))
	}
	pos := rng.Intn(len(b))
	switch rng.Intn(4) {
	case 0:
		b[pos] ^= byte(1 + rng.Intn(255))
	case 1:
		end := pos + 1 + rng.Intn(8)
		if rng.Intn(4) == 0 || end > len(b) {
			end = len(b) // truncation
		}
		b = append(b[:pos], b[end:]...)
	case 2:
		b = append(b[:pos], append([]byte{byte(rng.Intn(256))}, b[pos:]...)...)
	default:
		huge := binary.AppendUvarint(nil, uint64(1)<<uint(7+rng.Intn(56)))
		b = append(b[:pos], append(huge, b[pos+1:]...)...)
	}
	return b
}

// TestCorruptionNeverPanics mutates serialized repositories — raw, and
// section by section behind a repaired frame. Two arms draw different
// mutants: "succinct" holds each accepted one to Validate and the
// serializer (checkHostile), "records" also to the record oracle.
func TestCorruptionNeverPanics(t *testing.T) {
	seeds := hostileSeeds(t)
	for seed, mode := range []string{"succinct", "records"} {
		t.Run(mode, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99 + int64(seed)))
			check := func(data []byte, what string) bool {
				s := checkHostile(t, data, what)
				if s != nil && mode == "records" {
					checkRecords(t, s, sampledNodes(s))
				}
				return s != nil
			}
			for _, repo := range seeds {
				// Raw mutations: these exercise the magic, the checksum and
				// the decompressor.
				for i := 0; i < 60; i++ {
					check(mutate(rng, repo), "raw mutation")
				}
				pre, tree, contStart := unframe(t, repo)
				if !check(frame(pre, tree), "re-framed original") {
					t.Fatal("re-framed original rejected")
				}
				accepted := 0
				for i := 0; i < 300; i++ {
					var data []byte
					var what string
					switch i % 3 {
					case 0:
						what = "header mutation"
						data = frame(append(mutate(rng, pre[:contStart]), pre[contStart:]...), tree)
					case 1:
						what = "container mutation"
						data = frame(append(pre[:contStart:contStart], mutate(rng, pre[contStart:])...), tree)
					default:
						what = "structure mutation"
						data = frame(pre, mutate(rng, tree))
					}
					if check(data, what) {
						accepted++
					}
				}
				t.Logf("%d of 300 framed mutants loaded and passed the oracle", accepted)
			}
		})
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		garbage := make([]byte, 6+rng.Intn(512))
		rng.Read(garbage)
		checkHostile(t, garbage, "garbage")
		copy(garbage, magic)
		checkHostile(t, garbage, "magic-prefixed garbage")
		checkHostile(t, frame(garbage[:len(garbage)/2], garbage[len(garbage)/2:]), "framed garbage")
	}
}

// TestLoadBinaryBoundsCounts: every count in the file is checked
// against the bytes that remain before it sizes an allocation. The
// source-model count below once reached make([]string, n) unchecked.
func TestLoadBinaryBoundsCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<56)
	head := append(append([]byte(nil), magic...), 0) // original size 0
	cases := map[string][]byte{
		"name":         nil,
		"source model": {0},
		"container":    {0, 0},
		"record": {
			0,                                   // no names
			1, 1, 'g', 4, 'b', 'l', 'o', 'b', 0, // one blob group with an empty model
			1, 1, 'p', 0, 0, // one container: path "p", kind 0, group 0
		},
	}
	for what, prefix := range cases {
		body := append(append(append([]byte(nil), head...), prefix...), huge...)
		data := binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
		_, err := LoadBinary(data)
		if err == nil || !strings.Contains(err.Error(), what+" count") {
			t.Errorf("2^56 %ss: err = %v, want the %s count refused", what, err, what)
		}
	}
}

// FuzzLoadBinary fuzzes the unframed form of a repository (see
// unframe): the fuzzer owns every byte the parser will read, and the
// harness supplies the compression and the checksum.
func FuzzLoadBinary(f *testing.F) {
	for _, repo := range hostileSeeds(f) {
		pre, tree, _ := unframe(f, repo)
		f.Add(pre, tree)
	}
	f.Fuzz(func(t *testing.T, pre, tree []byte) {
		checkHostile(t, frame(pre, tree), "fuzz input")
	})
}
