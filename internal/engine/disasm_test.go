package engine

import (
	"context"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
)

func loadDoc(t *testing.T, doc string, plan *storage.CompressionPlan) *storage.Store {
	t.Helper()
	s, err := storage.Load([]byte(doc), storage.LoadOptions{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func compile(t *testing.T, s *storage.Store, q string) *Program {
	t.Helper()
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(expr, s, q)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestListedAccessIsTheAccessMade: the access a LITREST lists for its
// container is the one the run makes, by the decodes it costs — none on
// the compressed bytes, fewer than the records for a binary search, one
// per record for a scan — over int, decimal and string containers, with
// order-preserving and order-agnostic codecs. The containers hold enough
// records that ALM's code automata are smaller than they are.
func TestListedAccessIsTheAccessMade(t *testing.T) {
	const n = 512
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&doc, "<e><i>%d</i><d>%d.%02d</d><s>v%03d</s></e>", i, i, i%100, i)
	}
	doc.WriteString("</r>")
	// says, when set, is what the listing gives as the reason to scan.
	type check struct{ where, mode, says string }
	ints := []check{
		{`$e/i = 30`, "compressed", ""},
		{`$e/i = "030"`, "compressed", ""}, // canonicalized to 30
		{`$e/i = 30.5`, "scan", ""},        // no int is 30.5: compared as atoms
		{`$e/i != 30`, "scan", ""},
		{`$e/i < 30`, "compressed", ""},
		{`$e/i >= 30`, "compressed", ""},
		{`contains($e/i, "3")`, "scan", ""},
		{`starts-with($e/i, "3")`, "scan", ""}, // numeric order is not prefix order
		{`$e/d >= 12.5`, "compressed", ""},
		{`$e/d = 12.12`, "compressed", ""},
		{`$e/d != 12.12`, "scan", ""},
	}
	strs := func(ordered, automaton, why string) []check {
		long := why
		if long == "" {
			long = "longer than 254 bytes"
		}
		return []check{
			{`$e/s = "v030"`, "compressed", ""},
			{`$e/s != "v030"`, "scan", ""},
			{`$e/s < "v030"`, ordered, ""},
			{`$e/s >= "v030"`, ordered, ""},
			{`starts-with($e/s, "v03")`, ordered, ""},
			{`starts-with($e/s, "v1")`, ordered, ""},
			{`contains($e/s, "3")`, automaton, why},
			{`contains($e/s, "` + strings.Repeat("3", 255) + `")`, "scan", long},
			{`ends-with($e/s, "03")`, automaton, why},
			{`$e/s = 30`, "scan", ""}, // a number against strings: per value
		}
	}
	for alg, checks := range map[string][]check{
		storage.AlgALM:      append(strs("compressed", "compressed", ""), ints...),
		storage.AlgHuTucker: strs("compressed", "scan", "hutucker has no code automaton"),
		storage.AlgHuffman:  strs("binary search", "scan", "huffman has no code automaton"),
	} {
		s := loadDoc(t, doc.String(), &storage.CompressionPlan{DefaultAlgorithm: alg})
		for _, c := range checks {
			q := `FOR $e IN /r/e WHERE ` + c.where + ` RETURN 1`
			prog := compile(t, s, q)
			dis := prog.Disassemble()
			lit := regexp.MustCompile(`(?m)^.*LITREST.*$`).FindString(dis)
			var mode string
			switch {
			case strings.Contains(lit, "compressed bytes"):
				mode = "compressed"
			case strings.Contains(lit, "binary search"):
				mode = "binary search"
			case strings.Contains(lit, "ContScan"):
				mode = "scan"
			}
			if mode != c.mode || !strings.Contains(lit, c.says) {
				t.Errorf("%s %s: listed %q, want %s (%s):\n%s", alg, c.where, mode, c.mode, c.says, dis)
				continue
			}
			before := storage.DecodeOps()
			r, err := prog.newRun(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, ok, err := r.next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			decodes := storage.DecodeOps() - before
			if ok := map[string]bool{
				"compressed":    decodes == 0,
				"binary search": decodes > 0 && decodes < n,
				"scan":          decodes == n,
			}[mode]; !ok {
				t.Errorf("%s %s: listed %s, but the run decoded %d of %d records", alg, c.where, mode, decodes, n)
			}
		}
	}
	// A step from a bound node lists how it reads what the node reaches:
	// Q3's bidder[1] by the offsets of one array over the open auctions,
	// which every bidder run of the program shares, and Q19's location one
	// per parent in each region — the reads the runs make (reach).
	s := loadDoc(t, string(datagen.XMark(datagen.XMarkConfig{Scale: 0.1, Seed: 1})), nil)
	var auctions int
	for _, sn := range s.Sum.Nodes() {
		if sn.Path() == "/site/open_auctions/open_auction" {
			auctions = len(sn.Extent)
		}
	}
	q3 := compile(t, s, xmarkq.Q3)
	offsets := fmt.Sprintf("by extent offsets (%d B)", 4*(auctions+1))
	for _, step := range []string{"/bidder[1] ", "/bidder[last()] ", "/bidder "} {
		if dis := q3.Disassemble(); !strings.Contains(dis, step+offsets) || !strings.Contains(dis, "/increase one per parent") {
			t.Errorf("Q3 does not list %q%s:\n%s", step, offsets, dis)
		}
	}
	var arrays [][]uint32
	for _, pl := range q3.plans {
		for _, run := range pl.runs {
			for _, reads := range run.reads {
				for _, rd := range reads {
					if !rd.one && !slices.ContainsFunc(arrays, func(a []uint32) bool { return &a[0] == &rd.off[0] }) {
						arrays = append(arrays, rd.off)
					}
				}
			}
		}
	}
	if len(arrays) != 1 || len(arrays[0]) != auctions+1 {
		t.Errorf("Q3 reads bidders by %d offset arrays, want one of %d entries", len(arrays), auctions+1)
	}
	if size := q3.SizeBytes(); size < 4*(auctions+1) {
		t.Errorf("Q3's size %d B does not count its %d B of offsets", size, 4*(auctions+1))
	}
	if dis := compile(t, s, xmarkq.Q19).Disassemble(); !strings.Contains(dis, "reads /location one per parent") {
		t.Errorf("Q19 does not list $b/location one per parent:\n%s", dis)
	}
}

// TestAutomatonLargerThanItsContainerScans: a contains restrict over an
// ALM container smaller than the literal's code automaton decodes every
// record, and the listing says why.
func TestAutomatonLargerThanItsContainerScans(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&doc, "<e><s>v%03d</s></e>", i)
	}
	doc.WriteString("</r>")
	s := loadDoc(t, doc.String(), &storage.CompressionPlan{DefaultAlgorithm: storage.AlgALM})
	dis := compile(t, s, `FOR $e IN /r/e WHERE contains($e/s, "3") RETURN 1`).Disassemble()
	if !regexp.MustCompile(`ContScan decoding every record \(a \d+ B automaton exceeds the \d+ B container\)`).MatchString(dis) {
		t.Fatalf("the listing does not say the automaton is too large:\n%s", dis)
	}
}
