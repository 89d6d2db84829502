package succinct

import (
	"math/rand"
	"testing"
)

// shapes returns paren sequences that stress the directories: random
// trees spanning several 1024-bit blocks, a fully nested chain deeper
// than a block, a flat forest, and a comb (nested spine with leaf
// teeth) whose ancestors sit many blocks back.
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

func TestAncestorAtDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, parens := range shapes(rng) {
		bp := NewBP(buildFromBools(parens))
		o := newBPOracle(parens)
		// ancestors[d] = open position of the depth-d ancestor.
		var ancestors []int
		for i, open := range parens {
			if !open {
				ancestors = ancestors[:len(ancestors)-1]
				continue
			}
			ancestors = append(ancestors, i)
			e := o.excess[i]
			if e < 2 {
				continue
			}
			ts := []int{1, e - 1, 1 + rng.Intn(e-1)}
			for _, d := range ts {
				if got, want := bp.ancestorAtDepth(i, e, d), ancestors[d-1]; got != want {
					t.Fatalf("%s: ancestorAtDepth(%d,%d,%d)=%d want %d", name, i, e, d, got, want)
				}
			}
		}
	}
}

func TestBPWithDirs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, parens := range shapes(rng) {
		fresh := NewBP(buildFromBools(parens))
		excBase, anc := fresh.Directories()
		o := newBPOracle(parens)
		check := func(bp *BP, label string) {
			t.Helper()
			for i, open := range parens {
				if !open {
					continue
				}
				if got := bp.Enclose(i); got != o.enclose[i] {
					t.Fatalf("%s/%s: Enclose(%d)=%d want %d", name, label, i, got, o.enclose[i])
				}
			}
		}
		// A valid persisted blob must be adopted as-is.
		reused := NewBPWithDirs(buildFromBools(parens), excBase, anc)
		if len(excBase) > 0 && (&reused.excBase[0] != &excBase[0] || &reused.anc[0] != &anc[0]) {
			t.Fatalf("%s: valid directories were rebuilt instead of adopted", name)
		}
		check(reused, "reused")
		// Corrupt blobs must be rejected and rebuilt, not trusted.
		if len(anc) > 1 {
			for _, corrupt := range [][2][]int32{
				{append([]int32{}, excBase...), func() []int32 {
					c := append([]int32{}, anc...)
					c[len(c)-1]++
					return c
				}()},
				{func() []int32 {
					c := append([]int32{}, excBase...)
					c[len(c)-1] += 3
					return c
				}(), append([]int32{}, anc...)},
				{excBase[:len(excBase)-1], anc[:len(anc)-1]},
			} {
				rebuilt := NewBPWithDirs(buildFromBools(parens), corrupt[0], corrupt[1])
				check(rebuilt, "rebuilt")
			}
		}
	}
}
