package succinct

import (
	"math/rand"
	"testing"
)

// shapes returns paren sequences whose matches lie far from their opens
// and at every alignment: random trees spanning several 1024-bit blocks,
// a fully nested chain deeper than a block, a flat forest, and a comb (a
// nested spine with leaf teeth) whose spine closes sit many blocks on.
func shapes(rng *rand.Rand) map[string][]bool {
	out := map[string][]bool{}
	for _, n := range []int{5, 300, 5000, 40000} {
		out["random"+itoa(n)] = randomParens(rng, n)
	}
	deep := make([]bool, 0, 8000)
	for i := 0; i < 4000; i++ {
		deep = append(deep, true)
	}
	for i := 0; i < 4000; i++ {
		deep = append(deep, false)
	}
	out["deep"] = deep
	flat := make([]bool, 0, 8000)
	for i := 0; i < 4000; i++ {
		flat = append(flat, true, false)
	}
	out["flat"] = flat
	comb := make([]bool, 0, 12000)
	for i := 0; i < 3000; i++ {
		comb = append(comb, true, true, false)
	}
	for i := 0; i < 3000; i++ {
		comb = append(comb, false)
	}
	out["comb"] = comb
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestSelectScanner(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, density := range []int{2, 7, 100} {
		bitset := make([]bool, 300000)
		var pos []int
		for i := range bitset {
			if rng.Intn(density) == 0 {
				bitset[i] = true
				pos = append(pos, i)
			}
		}
		v := buildFromBools(bitset)
		ones := len(pos)
		// Dense ascending walk over every one.
		sc := NewSelectScanner(v)
		for k := 0; k < ones; k++ {
			if got := sc.Seek(k); got != pos[k] {
				t.Fatalf("density %d: Seek(%d)=%d want %d", density, k, got, pos[k])
			}
		}
		// Sparse walk with jumps past the re-seed threshold.
		sc = NewSelectScanner(v)
		for k := 0; k < ones; k += 1 + rng.Intn(ones/3+1) {
			if got := sc.Seek(k); got != pos[k] {
				t.Fatalf("density %d: sparse Seek(%d)=%d want %d", density, k, got, pos[k])
			}
		}
	}
}

// TestBPWithDirs keeps the name it had while the paren sequence carried
// shortcut ancestor directories, so its ID stays stable. Those are gone,
// and so is every search they served; it checks the forward FindClose
// and the excess at every paren against the oracle on the multi-block
// shapes that stressed them.
func TestBPWithDirs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, parens := range shapes(rng) {
		v := buildFromBools(parens)
		o := newBPOracle(parens)
		for i, open := range parens {
			if got, want := excess(v, i), o.excess[i]; got != want {
				t.Fatalf("%s: Excess(%d)=%d want %d", name, i, got, want)
			}
			if !open {
				continue
			}
			if got, want := v.FindClose(i), o.match[i]; got != want {
				t.Fatalf("%s: FindClose(%d)=%d want %d", name, i, got, want)
			}
		}
	}
}

// FuzzSelectScannerSeek holds SelectScanner.Seek to Select1 over queries
// in any order. The shape byte picks the vector: the pattern bytes
// repeated, sparse (one bit in 97), dense (all but one in 13) or all
// ones; each move byte picks the next k — a step back, the same k again,
// a short step forward, a jump past the re-seed gap, one of the last
// ones (the last word), or anywhere.
func FuzzSelectScannerSeek(f *testing.F) {
	f.Add(uint8(0), uint16(3000), []byte{0xa5, 0x3c}, []byte{5, 0, 200, 200, 7, 1, 3, 9, 4, 10, 6})
	f.Add(uint8(1), uint16(60000), []byte{0x01}, []byte{17, 3, 9, 0, 0, 1, 2, 22, 250, 5, 4, 6})
	f.Add(uint8(2), uint16(20000), []byte{}, []byte{3, 3, 3, 0, 1, 8, 9, 4, 10, 11, 5, 2})
	f.Add(uint8(3), uint16(64*70), []byte{}, []byte{9, 15, 21, 0, 6, 4, 1, 250, 249, 3, 10})
	f.Fuzz(func(t *testing.T, shape uint8, nBits uint16, pattern, moves []byte) {
		bitset := make([]bool, int(nBits))
		for i := range bitset {
			switch shape % 4 {
			case 0:
				bitset[i] = len(pattern) > 0 && pattern[i/8%len(pattern)]>>(uint(i)%8)&1 == 1
			case 1:
				bitset[i] = i%97 == 0
			case 2:
				bitset[i] = i%13 != 0
			case 3:
				bitset[i] = true
			}
		}
		v := buildFromBools(bitset)
		ones := v.Ones()
		if ones == 0 {
			return
		}
		sc := NewSelectScanner(v)
		k := 0
		for _, m := range moves {
			d := int(m / 6)
			switch m % 6 {
			case 0:
				k -= d + 1
			case 2:
				k += d
			case 3:
				k += selReseedGap + d
			case 4:
				k = ones - 1 - d%64
			case 5:
				k = int(m) * ones / 256
			}
			k = max(0, min(k, ones-1))
			if got, want := sc.Seek(k), v.Select1(k); got != want {
				t.Fatalf("Seek(%d)=%d, Select1 %d", k, got, want)
			}
		}
	})
}
