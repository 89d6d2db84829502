package datagen

import (
	"fmt"
	"math/rand"
	"strings"
)

// RandomRecords builds a random record-shaped document: groups of entries
// with string/int/decimal fields and attributes on several levels, mixed
// content, and recursive nesting — entry inside entry, nested inside
// nested — so a variable bound over //entry or //nested has a summary
// set that is not an antichain.
func RandomRecords(rng *rand.Rand) []byte {
	var sb strings.Builder
	sb.WriteString("<root>")
	nGroups := 1 + rng.Intn(3)
	for g := 0; g < nGroups; g++ {
		fmt.Fprintf(&sb, `<group id="g%d">`, g)
		for e := 0; e < rng.Intn(8); e++ {
			randomEntry(&sb, rng, 0)
		}
		sb.WriteString("</group>")
	}
	sb.WriteString("</root>")
	return []byte(sb.String())
}

func randomEntry(sb *strings.Builder, rng *rand.Rand, depth int) {
	fmt.Fprintf(sb, `<entry key="k%d">`, rng.Intn(5))
	if rng.Intn(4) == 0 {
		sb.WriteString("memo ") // mixed content
	}
	fmt.Fprintf(sb, "<label>%s</label>", []string{"alpha", "beta", "gamma", "delta"}[rng.Intn(4)])
	fmt.Fprintf(sb, "<num>%d</num>", rng.Intn(100))
	if rng.Intn(2) == 0 {
		fmt.Fprintf(sb, "<price>%d.%02d</price>", rng.Intn(50), rng.Intn(100))
	}
	for n := rng.Intn(3); n > 0; n-- {
		randomNested(sb, rng, 0)
	}
	if depth < 2 && rng.Intn(3) == 0 {
		randomEntry(sb, rng, depth+1)
	}
	if rng.Intn(4) == 0 {
		sb.WriteString(" tail")
	}
	sb.WriteString("</entry>")
}

func randomNested(sb *strings.Builder, rng *rand.Rand, depth int) {
	fmt.Fprintf(sb, `<nested key="n%d"><label>%s</label>`, rng.Intn(3), []string{"x", "y"}[rng.Intn(2)])
	if depth < 2 && rng.Intn(3) == 0 {
		randomNested(sb, rng, depth+1)
	}
	sb.WriteString("</nested>")
}
