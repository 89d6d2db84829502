package succinct

import (
	"math/rand"
	"slices"
	"testing"
)

// naiveRank1 counts set bits in [0, i) directly.
func naiveRank1(bitset []bool, i int) int {
	if i > len(bitset) {
		i = len(bitset)
	}
	c := 0
	for j := 0; j < i; j++ {
		if bitset[j] {
			c++
		}
	}
	return c
}

func naiveSelect1(bitset []bool, k int) int {
	for j, b := range bitset {
		if b {
			if k == 0 {
				return j
			}
			k--
		}
	}
	return -1
}

func buildFromBools(bitset []bool) *Bitvector {
	bb := NewBitBuilder(len(bitset))
	for _, b := range bitset {
		bb.Append(b)
	}
	return bb.Build()
}

func TestBitvectorRankSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lengths := []int{0, 1, 2, 63, 64, 65, 127, 128, 255, 256, 257,
		511, 512, 513, 4095, 4096, 65535, 65536, 65537, 200003}
	densities := []float64{0, 0.01, 0.5, 0.99, 1}
	for _, n := range lengths {
		for _, d := range densities {
			bitset := make([]bool, n)
			for i := range bitset {
				bitset[i] = rng.Float64() < d
			}
			v := buildFromBools(bitset)
			if v.Len() != n {
				t.Fatalf("n=%d d=%v: Len=%d", n, d, v.Len())
			}
			if got, want := v.Ones(), naiveRank1(bitset, n); got != want {
				t.Fatalf("n=%d d=%v: Ones=%d want %d", n, d, got, want)
			}
			// All ranks at boundaries plus a random sample in between.
			checks := []int{0, 1, n / 2, n - 1, n, n + 7}
			for i := 0; i < 64; i++ {
				checks = append(checks, rng.Intn(n+1))
			}
			for _, i := range checks {
				if i < 0 {
					continue
				}
				want := naiveRank1(bitset, i)
				if got := v.Rank1(i); got != want {
					t.Fatalf("n=%d d=%v: Rank1(%d)=%d want %d", n, d, i, got, want)
				}
				if got := v.Rank0(i); got != min(i, n)-want {
					t.Fatalf("n=%d d=%v: Rank0(%d)=%d", n, d, i, got)
				}
			}
			for k := 0; k < v.Ones(); k += 1 + v.Ones()/97 {
				want := naiveSelect1(bitset, k)
				if got := v.Select1(k); got != want {
					t.Fatalf("n=%d d=%v: Select1(%d)=%d want %d", n, d, k, got, want)
				}
			}
			if got := v.Select1(v.Ones()); got != -1 {
				t.Fatalf("n=%d d=%v: Select1(ones)=%d want -1", n, d, got)
			}
			if got := v.Select1(-1); got != -1 {
				t.Fatalf("Select1(-1)=%d", got)
			}
		}
	}
}

func TestBitvectorGet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bitset := make([]bool, 1000)
	for i := range bitset {
		bitset[i] = rng.Intn(2) == 1
	}
	v := buildFromBools(bitset)
	for i, want := range bitset {
		if got := v.Get(i); got != want {
			t.Fatalf("Get(%d)=%v want %v", i, got, want)
		}
	}
}

// randomParens generates a random balanced-parentheses sequence of
// nPairs pairs (true = open).
func randomParens(rng *rand.Rand, nPairs int) []bool {
	out := make([]bool, 0, 2*nPairs)
	open, closed := 0, 0
	for len(out) < 2*nPairs {
		canOpen := open < nPairs
		canClose := closed < open
		if canOpen && (!canClose || rng.Intn(2) == 0) {
			out = append(out, true)
			open++
		} else {
			out = append(out, false)
			closed++
		}
	}
	return out
}

// bpOracle computes matches and encloses with an explicit stack.
type bpOracle struct {
	match   []int // match[i] = matching paren position
	enclose []int // enclose[i] = enclosing open position (or -1), for opens
	excess  []int
}

func newBPOracle(parens []bool) *bpOracle {
	o := &bpOracle{
		match:   make([]int, len(parens)),
		enclose: make([]int, len(parens)),
		excess:  make([]int, len(parens)),
	}
	var stack []int
	e := 0
	for i, open := range parens {
		if open {
			if len(stack) > 0 {
				o.enclose[i] = stack[len(stack)-1]
			} else {
				o.enclose[i] = -1
			}
			stack = append(stack, i)
			e++
		} else {
			j := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			o.match[i] = j
			o.match[j] = i
			e--
		}
		o.excess[i] = e
	}
	return o
}

func TestBPNavigation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, nPairs := range []int{1, 2, 3, 10, 100, 255, 256, 257, 1000, 5000, 40000} {
		parens := randomParens(rng, nPairs)
		bp := NewBP(buildFromBools(parens))
		o := newBPOracle(parens)
		if bp.Len() != len(parens) {
			t.Fatalf("Len=%d want %d", bp.Len(), len(parens))
		}
		step := 1 + len(parens)/512
		for i := 0; i < len(parens); i += step {
			if got, want := bp.Excess(i), o.excess[i]; got != want {
				t.Fatalf("nPairs=%d: Excess(%d)=%d want %d", nPairs, i, got, want)
			}
			if parens[i] {
				if got, want := bp.FindClose(i), o.match[i]; got != want {
					t.Fatalf("nPairs=%d: FindClose(%d)=%d want %d", nPairs, i, got, want)
				}
				if got, want := bp.Enclose(i), o.enclose[i]; got != want {
					t.Fatalf("nPairs=%d: Enclose(%d)=%d want %d", nPairs, i, got, want)
				}
			} else {
				if got, want := bp.FindOpen(i), o.match[i]; got != want {
					t.Fatalf("nPairs=%d: FindOpen(%d)=%d want %d", nPairs, i, got, want)
				}
			}
		}
	}
}

func TestBPDeepAndFlat(t *testing.T) {
	// Fully nested: ((((...)))) and fully flat: ()()()...
	const n = 3000
	deep := make([]bool, 2*n)
	flat := make([]bool, 2*n)
	for i := 0; i < n; i++ {
		deep[i] = true
		flat[2*i] = true
	}
	for _, parens := range [][]bool{deep, flat} {
		bp := NewBP(buildFromBools(parens))
		o := newBPOracle(parens)
		for i := range parens {
			if parens[i] {
				if got, want := bp.FindClose(i), o.match[i]; got != want {
					t.Fatalf("FindClose(%d)=%d want %d", i, got, want)
				}
				if got, want := bp.Enclose(i), o.enclose[i]; got != want {
					t.Fatalf("Enclose(%d)=%d want %d", i, got, want)
				}
			} else if got, want := bp.FindOpen(i), o.match[i]; got != want {
				t.Fatalf("FindOpen(%d)=%d want %d", i, got, want)
			}
		}
	}
}

func FuzzBitvectorRankSelect(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xa5}, uint16(20))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x01}, uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, nBits uint16) {
		n := int(nBits)
		if n > 8*len(data) {
			n = 8 * len(data)
		}
		bitset := make([]bool, n)
		for i := range bitset {
			bitset[i] = data[i/8]>>(uint(i)%8)&1 == 1
		}
		v := buildFromBools(bitset)
		for i := 0; i <= n; i++ {
			if got, want := v.Rank1(i), naiveRank1(bitset, i); got != want {
				t.Fatalf("Rank1(%d)=%d want %d", i, got, want)
			}
		}
		for k := 0; k < v.Ones(); k++ {
			if got, want := v.Select1(k), naiveSelect1(bitset, k); got != want {
				t.Fatalf("Select1(%d)=%d want %d", k, got, want)
			}
		}
	})
}

func FuzzBPNavigation(f *testing.F) {
	f.Add([]byte{0xaa, 0x55}, int64(1))
	f.Add([]byte{0x00}, int64(2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		// Derive a balanced sequence from the fuzz bytes: each bit votes
		// open/close; illegal closes become opens, trailing opens get
		// closed — so every input maps to a valid paren string.
		var parens []bool
		open := 0
		for _, b := range data {
			for j := 0; j < 8; j++ {
				if b>>uint(j)&1 == 1 || open == 0 {
					parens = append(parens, true)
					open++
				} else {
					parens = append(parens, false)
					open--
				}
			}
		}
		for ; open > 0; open-- {
			parens = append(parens, false)
		}
		if len(parens) == 0 {
			return
		}
		bp := NewBP(buildFromBools(parens))
		o := newBPOracle(parens)
		for i := range parens {
			if got, want := bp.Excess(i), o.excess[i]; got != want {
				t.Fatalf("Excess(%d)=%d want %d", i, got, want)
			}
			if parens[i] {
				if got, want := bp.FindClose(i), o.match[i]; got != want {
					t.Fatalf("FindClose(%d)=%d want %d", i, got, want)
				}
				if got, want := bp.Enclose(i), o.enclose[i]; got != want {
					t.Fatalf("Enclose(%d)=%d want %d", i, got, want)
				}
			} else if got, want := bp.FindOpen(i), o.match[i]; got != want {
				t.Fatalf("FindOpen(%d)=%d want %d", i, got, want)
			}
		}
	})
}

// TestAppendRangeMatchesAppend: the word-shifted range copy must write
// the bits the one-at-a-time Append writes, at every pair of alignments.
func TestAppendRangeMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := make([]uint64, 12)
	for i := range src {
		src[i] = rng.Uint64()
	}
	for trial := 0; trial < 2000; trial++ {
		want, got := NewBitBuilder(0), NewBitBuilder(0)
		for piece := 0; piece < 1+rng.Intn(5); piece++ {
			from := rng.Intn(64 * len(src))
			to := from + rng.Intn(64*len(src)-from+1)
			if rng.Intn(4) == 0 {
				to = min(to, from+rng.Intn(70))
			}
			for i := from; i < to; i++ {
				want.Append(src[i>>6]>>(uint(i)&63)&1 == 1)
			}
			got.AppendRange(src, from, to)
		}
		if got.Len() != want.Len() || !slices.Equal(got.Words(), want.Words()) {
			t.Fatalf("trial %d: %d bits %x, want %d bits %x", trial, got.Len(), got.Words(), want.Len(), want.Words())
		}
	}
}
