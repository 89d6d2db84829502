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
// accepts, the serializer can walk and every record of which decodes or
// fails to — never a panic, and never more memory than the input pays
// for. The memory bound is linear with a large constant because small
// inputs legitimately fan out: a source model of a few bytes builds a few
// KB of codec tables, and the LZSS structure section expands up to ~90x.
// It covers the first decodes as well as the load, since an ALM model is
// built on its first use. It returns the store, nil when the bytes were
// refused.
func checkHostile(t testing.TB, data []byte, what string) *Store {
	t.Helper()
	limit := uint64(1<<20 + 4096*len(data))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := LoadBinary(data)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > limit {
		t.Fatalf("%s: loading %d bytes allocated %d (limit %d)", what, len(data), alloc, limit)
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
	// decode may still fail (a value can be corrupt). The sweep and the
	// decodes after it are the first use of every model.
	runtime.ReadMemStats(&before)
	var buf []byte
	for id := range sampledNodes(s) {
		buf, _ = s.Serialize(nil, buf[:0], id)
		buf, _ = s.DeepText(nil, buf[:0], id)
	}
	for _, c := range s.Containers {
		for i := 0; i < c.Len(); i++ {
			buf, _ = c.Decode(buf[:0], i)
		}
	}
	runtime.ReadMemStats(&after)
	if alloc += after.TotalAlloc - before.TotalAlloc; alloc > limit {
		t.Fatalf("%s: loading %d bytes and decoding from them allocated %d (limit %d)", what, len(data), alloc, limit)
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

// TestLoadBinaryRejectsUnownedRecords: every record of every container
// belongs to a node. A record no text leaf names — one appended to a
// container, or a whole container repeated under its path, which names
// only the last copy — is reachable by no query yet counted in CF, Stats
// and Footprint; the load pass refuses the file, and the oracle the
// store it came from.
func TestLoadBinaryRejectsUnownedRecords(t *testing.T) {
	const doc = `<site><people><person id="p1"><name>alice</name></person><person id="p2"><name>bob</name></person></people></site>`
	for _, mutant := range []string{"extra record", "repeated path"} {
		s, err := Load([]byte(doc), LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		c, ok := s.ContainerByPath("/site/people/person/name/#text")
		if !ok {
			t.Fatal("no name container")
		}
		switch mutant {
		case "extra record":
			v, err := c.Encode(nil, []byte("zzz"))
			if err != nil {
				t.Fatal(err)
			}
			c.vals, c.owners = append(c.vals, v), append(c.owners, 0)
			if err := s.Validate(); err == nil {
				t.Errorf("%s: the oracle accepts a record no node owns", mutant)
			}
		case "repeated path":
			dup := *c
			s.Containers = append(s.Containers, &dup)
		}
		if _, err := LoadBinary(s.AppendBinary(nil)); err == nil || !strings.Contains(err.Error(), "belong to no node") {
			t.Errorf("%s: LoadBinary err = %v, want the unowned record refused", mutant, err)
		}
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

// TestVersion3Refused: v3 files appended per-block shortcut directories
// to the structure section. Such a file does not open, and neither does
// a v4 header over a v3 structure section: the magic refuses the first,
// the structure section's trailing-bytes check the second.
func TestVersion3Refused(t *testing.T) {
	for _, repo := range hostileSeeds(t) {
		s, err := LoadBinary(repo)
		if err != nil {
			t.Fatal(err)
		}
		pre, tree, _ := unframe(t, repo)
		a := s.succ.arrays()
		v3tree := append(append([]byte(nil), tree...), v3Directories(a.parens, a.nParens)...)
		v3pre := append([]byte("XQCR3\n"), pre[len(magic):]...)
		for _, c := range []struct {
			what, want string
			data       []byte
		}{
			{"v3 file", "bad magic", frame(v3pre, v3tree)},
			{"v4 header, v3 structure section", "trailing bytes in structure section", frame(pre, v3tree)},
		} {
			if _, err := LoadBinary(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: LoadBinary err = %v, want %q", c.what, err, c.want)
			}
		}
	}
}

// v3Directories encodes the section v3 appended to the structure: per
// 1024-bit block, the excess entering it and 1 + the position of the
// innermost paren still open there (0 at depth zero).
func v3Directories(words []uint64, nBits int) []byte {
	out := compress.AppendUvarint(nil, uint64((nBits+1023)/1024))
	var stack []int
	for p := 0; p < nBits; p++ {
		if p%1024 == 0 {
			top := 0
			if len(stack) > 0 {
				top = stack[len(stack)-1] + 1
			}
			out = compress.AppendUvarint(out, uint64(len(stack)))
			out = compress.AppendUvarint(out, uint64(top))
		}
		if words[p>>6]>>(uint(p)&63)&1 == 1 {
			stack = append(stack, p)
		} else {
			stack = stack[:len(stack)-1]
		}
	}
	return out
}
