package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xquec/internal/baselines/galaxlike"
	"xquec/internal/datagen"
	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// runVM compiles and runs q serially: the way a query runs, which must
// agree with the DOM reference, sharing no code (and so no mistake) with
// it. A query that parses must compile.
func runVM(t *testing.T, s *storage.Store, q string) (string, error) {
	expr, err := xquery.Parse(q)
	if err != nil {
		return "", err
	}
	prog, err := engine.Compile(expr, s, q)
	if err != nil {
		t.Fatalf("compile %s: %v", q, err)
	}
	res, err := prog.Run(context.Background())
	if err != nil {
		return "", err
	}
	return res.SerializeXML()
}

// agree runs q on doc and requires the reference's answer (or the
// reference's failure).
func agree(t *testing.T, doc []byte, s *storage.Store, q string) {
	t.Helper()
	want, werr := galaxlike.New(doc).Query(q)
	var ws string
	if werr == nil {
		var err error
		if ws, err = want.SerializeXML(); err != nil {
			t.Fatal(err)
		}
	}
	gs, gerr := runVM(t, s, q)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("error mismatch: got %v, reference %v\nquery: %s\ndoc: %s", gerr, werr, q, doc)
	}
	if gerr == nil && gs != ws {
		t.Fatalf("differs\nquery: %s\ngot:       %q\nreference: %q\ndoc: %s", q, gs, ws, doc)
	}
}

// TestRandomDifferential compares the compiled program against the DOM
// reference on random documents — recursive, with mixed content — for
// every query in the battery under every compression plan.
func TestRandomDifferential(t *testing.T) {
	plans := []*storage.CompressionPlan{
		nil,
		{DefaultAlgorithm: storage.AlgHuffman},
		{DefaultAlgorithm: storage.AlgHuTucker},
	}
	rng := rand.New(rand.NewSource(20040315))
	trials := 25
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		doc := engine.RandomDoc(rng)
		for _, plan := range plans {
			s, err := storage.Load(doc, storage.LoadOptions{Plan: plan})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for _, q := range datagen.RecordQueries() {
				agree(t, doc, s, q)
			}
		}
	}
}

// TestNestedBindings: a variable bound over nodes that nest — listitems
// inside listitems, a spine forty elements deep — reads, like any other,
// the extents under each binding's own summary node up to the next
// instance of that node (TestRunsResolvePerOrigin pins what each origin
// looks in), and agrees with the reference.
func TestNestedBindings(t *testing.T) {
	docs := map[string][]byte{
		"lists": []byte(engine.NestedLists),
		"deep":  datagen.DeepTree(datagen.DeepTreeConfig{Depth: 40, Seed: 5}),
	}
	queries := map[string][]string{
		"lists": {
			// $d over descriptions: one summary node.
			`FOR $d IN /site/regions/asia/item/description RETURN <d>{$d//listitem/text/text()}</d>`,
			`FOR $d IN //description RETURN count($d//listitem)`,
			`FOR $d IN //description RETURN <d>{$d/parlist/listitem/text/text()}</d>`,
			`FOR $d IN //description RETURN $d/parlist/listitem[last()]/text/text()`,
			// $l over all listitems: three nested summary nodes.
			`FOR $l IN //listitem RETURN <l>{$l/parlist/listitem/text/text()}</l>`,
			`FOR $l IN //listitem RETURN <l n="{count($l//listitem)}">{$l/text/text()}</l>`,
			`FOR $l IN //listitem RETURN $l/parlist/listitem[1]/text`,
			`FOR $l IN //listitem WHERE $l/text = "a" RETURN count($l/parlist/listitem)`,
			`FOR $l IN //listitem, $m IN //listitem WHERE $l/text = $m/text RETURN $m/text/text()`,
			`count(//listitem[text = "a2"])`,
			`FOR $p IN //parlist RETURN count($p/listitem)`,
		},
		"deep": {
			`FOR $s IN //sa RETURN count($s/sb)`,
			`FOR $s IN //sa RETURN <s n="{count($s//sa)}">{$s/la/text()}</s>`,
			`FOR $s IN //sb RETURN $s/sc/lb[1]`,
			`FOR $s IN //sa RETURN $s/sb/sc/sd/sa/la/@k`,
			`FOR $s IN //sc WHERE $s/la >= 5000 RETURN $s/la/text()`,
			`FOR $l IN //la RETURN count($l/lx)`,
		},
	}
	for name, doc := range docs {
		s, err := storage.Load(doc, storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries[name] {
			agree(t, doc, s, q)
		}
	}
}

// TestOrderByMixedKeys: "2" < "10" numerically, "10" < "1a" and
// "1a" < "2" as strings — a comparison chosen per pair is a cycle, and a
// stable sort over it returns an arrangement that depends on its merge
// schedule. Chosen once per sort (here: strings, since "1a" is no
// number), every input permutation sorts the same way, in the compiled
// program and the reference.
func TestOrderByMixedKeys(t *testing.T) {
	keys := []string{"2", "10", "1a"}
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, q := range []string{
		`FOR $e IN /r/e ORDER BY $e/k RETURN $e/k/text()`,
		`FOR $e IN /r/e ORDER BY $e/k DESCENDING RETURN $e/k/text()`,
	} {
		var first string
		for _, perm := range perms {
			var sb strings.Builder
			sb.WriteString("<r>")
			for _, i := range perm {
				fmt.Fprintf(&sb, "<e><k>%s</k></e>", keys[i])
			}
			sb.WriteString("</r>")
			doc := []byte(sb.String())
			s, err := storage.Load(doc, storage.LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			agree(t, doc, s, q)
			got, err := runVM(t, s, q)
			if err != nil {
				t.Fatal(err)
			}
			if first == "" {
				first = got
			}
			if got != first {
				t.Fatalf("permutation %v sorts to %q, another to %q\nquery: %s", perm, got, first, q)
			}
		}
		if want := "10\n1a\n2"; !strings.Contains(q, "DESC") && first != want {
			t.Fatalf("mixed keys sort to %q, want string order %q", first, want)
		}
	}
}

// TestOrderByBattery holds the compiled program to the reference on the
// documents where ORDER BY keys are awkward, under every compression
// plan: a missing key, an element with no text, a key of two text leaves
// (which leaves the compiled program's rank table for the decoded keys),
// a key path that finds several nodes, attribute keys mixing "10", "9.0"
// and "x" and an empty attribute, typed int and decimal keys, " 3"
// against "03", ties in both directions — through a rankable key path,
// its text() form, a key with element content, two FOR clauses with a LET
// on both sides of the sort, a nested sort and a RETURN that fails for
// some tuples.
func TestOrderByBattery(t *testing.T) {
	docs := []string{
		`<r><e id="1"><k>b</k></e><e id="2"/><e id="3"><k/></e><e id="4"><k>a</k></e><e id="5"><k>b</k><k>a</k></e><e id="6"><k></k></e></r>`,
		`<r><e id="1"><k>a<!--c-->0</k></e><e id="2"><k>a1</k></e><e id="3"><k>a</k></e><e id="4"/></r>`,
		`<r><e id="1" a="10"/><e id="2" a="9.0"/><e id="3" a="x"/><e id="4" a=""/><e id="5"/><e id="6" a="9.0"/></r>`,
		`<r><e id="1" a="10"><k>10</k></e><e id="2" a="9.0"><k>9</k></e><e id="3" a="9"><k>-2</k></e><e id="4" a="-1"><k>10</k></e></r>`,
		`<r><e id="1"><k>1.50</k></e><e id="2"><k>0.25</k></e><e id="3"><k>1.50</k></e><e id="4"><k>12.00</k></e></r>`,
		`<r><e id="1"><k> 3</k></e><e id="2"><k>03</k></e><e id="3"><k>3</k></e><e id="4"><k>2</k></e></r>`,
		`<r><e id="1"><k> 3</k></e><e id="2"><k>03</k></e><e id="3"><k>x</k></e><e id="4"><k>3</k></e></r>`,
		`<r><e id="1"><k>b</k></e><e id="2"><k>a</k></e><e id="3"><k>b</k></e><e id="4"><k>a</k></e><e id="5"><k>b</k></e></r>`,
		// the spellings strconv.ParseFloat takes; NaN is no number
		`<r><e id="1" a="+1"><k>inf</k></e><e id="2" a=".5"><k>-Infinity</k></e><e id="3" a="1e3"><k>0x1p4</k></e><e id="4" a="-0"><k>INF</k></e><e id="5" a="&#160;7"><k>2</k></e></r>`,
		`<r><e id="1"><k>2</k></e><e id="2"><k>nan</k></e><e id="3"><k>10</k></e></r>`,
	}
	queries := []string{
		`FOR $e IN /r/e ORDER BY $e/k RETURN $e/@id`,
		`FOR $e IN /r/e ORDER BY $e/k DESCENDING RETURN $e/@id`,
		`FOR $e IN /r/e ORDER BY $e/k/text() RETURN <e id="{$e/@id}">{$e/k/text()}</e>`,
		`FOR $e IN /r/e ORDER BY $e/@a RETURN $e/@id`,
		`FOR $e IN /r/e ORDER BY $e/@a DESCENDING RETURN $e/@id`,
		`FOR $e IN /r/e ORDER BY $e RETURN $e/@id`,
		`FOR $e IN /r/e, $k IN $e/k LET $t := $k/text() WHERE $t != "b" ORDER BY $k DESCENDING RETURN <x e="{$e/@id}">{$t}</x>`,
		`FOR $x IN /r RETURN <o>{FOR $e IN $x/e ORDER BY $e/k DESCENDING RETURN $e/@id}</o>`,
		`FOR $e IN /r/e ORDER BY $e/k RETURN number($e/k)`,
		`FOR $a IN /r/e RETURN <o>{FOR $b IN $a/k LET $a := $a/k ORDER BY $b DESCENDING RETURN count($a)}</o>`,
		`FOR $b IN /r/e/k LET $a := $a/k ORDER BY $b RETURN count($a)`,
	}
	plans := []*storage.CompressionPlan{
		nil,
		{DefaultAlgorithm: storage.AlgHuffman},
		{DefaultAlgorithm: storage.AlgHuTucker},
	}
	for _, doc := range docs {
		for _, plan := range plans {
			s, err := storage.Load([]byte(doc), storage.LoadOptions{Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				agree(t, []byte(doc), s, q)
			}
		}
	}
	// The battery must go through the rank tables, not only around them.
	s, err := storage.Load([]byte(docs[0]), storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for q, ranked := range map[string]bool{queries[0]: true, queries[3]: true, queries[5]: false} {
		expr, err := xquery.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := engine.Compile(expr, s, q)
		if err != nil {
			t.Fatal(err)
		}
		if dis := prog.Disassemble(); strings.Contains(dis, "ranks over") != ranked {
			t.Errorf("%s: ranked %v, want %v:\n%s", q, !ranked, ranked, dis)
		}
	}
}

// TestTemplateEscaping holds the emission templates to the reference on
// values that need escaping — `& < > " '`, a tab and a carriage return, in
// text and in attributes — written into attributes, as text content and as
// serialized nodes, beside literal text that needs it too, and checks that
// the program really writes them through templates.
func TestTemplateEscaping(t *testing.T) {
	doc := []byte(`<r><e k="a&amp;b &quot;q&quot; &lt;x&gt;&#9;t&#13;" j="it&apos;s"><v>1 &lt; 2 &amp;&amp; 3 &gt; 2</v><w>tab&#9;cr&#13;end "q" 'a'</w></e><e k="" j="&lt;"><v/><w>&amp;</w></e></r>`)
	queries := []string{
		`FOR $e IN /r/e RETURN <o k="{$e/@k}" v="{$e/v/text()}" w="[{$e/w}]">{$e/v/text()}|{$e/@j}</o>`,
		`FOR $e IN /r/e RETURN <o lit="&lt;&amp;&quot;">a &lt; b &amp; c{$e/w/text()}<n k="{$e/@k}">{$e/v}</n>{$e}</o>`,
		`FOR $e IN /r/e RETURN <o>{$e/v/text()}</o>`,
		`<all>{count(/r/e)}{/r/e[1]/w}</all>`,
		`FOR $x IN /r LET $l := FOR $e IN $x/e RETURN <l j="{$e/@j}">{$e/w/text()}</l> RETURN <o n="{count($l)}">{$l}</o>`,
	}
	for _, plan := range []*storage.CompressionPlan{nil, {DefaultAlgorithm: storage.AlgHuffman}, {DefaultAlgorithm: storage.AlgHuTucker}} {
		s, err := storage.Load(doc, storage.LoadOptions{Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			agree(t, doc, s, q)
			expr, err := xquery.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := engine.Compile(expr, s, q)
			if err != nil {
				t.Fatal(err)
			}
			if dis := prog.Disassemble(); !strings.Contains(dis, "EMITCTOR") || strings.Contains(dis, "EVAL") {
				t.Fatalf("%s: not written through a template:\n%s", q, dis)
			}
		}
	}
}

// TestLiteralRestrictScansOncePerRun: a literal pushdown reached once per
// outer tuple — in a nested FLWOR, in a non-first clause, in a step
// predicate of a relative path — matches its container once per run. The
// comparison here has to decode (a string container against a number),
// so the scan shows in storage.DecodeOps: the same 60 values in 2 groups
// or in 20 cost the same decodes, where they used to cost one scan per
// group.
func TestLiteralRestrictScansOncePerRun(t *testing.T) {
	const entries, hits = 60, 3
	doc := func(groups int) []byte {
		var sb strings.Builder
		sb.WriteString("<r>")
		for g, n := 0, 0; g < groups; g++ {
			sb.WriteString("<g>")
			for i := 0; i < entries/groups; i, n = i+1, n+1 {
				v := fmt.Sprintf("w%d", n)
				if n%(entries/hits) == 0 {
					v = "7.0"
				}
				fmt.Fprintf(&sb, `<e k="k%d"><v>%s</v></e>`, n, v)
			}
			sb.WriteString("</g>")
		}
		sb.WriteString("</r>")
		return []byte(sb.String())
	}
	for _, q := range []string{
		`FOR $g IN /r/g RETURN <g>{FOR $e IN $g/e WHERE $e/v = 7 RETURN $e/@k}</g>`,
		`FOR $g IN /r/g, $e IN $g/e WHERE $e/v = 7 RETURN $e/@k`,
		`FOR $g IN /r/g RETURN count($g/e[v = 7])`,
	} {
		var deltas []int64
		for _, groups := range []int{2, 20} {
			d := doc(groups)
			s, err := storage.Load(d, storage.LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			agree(t, d, s, q)
			before := storage.DecodeOps()
			if _, err := runVM(t, s, q); err != nil {
				t.Fatal(err)
			}
			deltas = append(deltas, storage.DecodeOps()-before)
		}
		if deltas[0] != deltas[1] || deltas[0] < entries || deltas[0] > entries+hits {
			t.Errorf("%s decodes %d values over 2 groups and %d over 20, want one scan of %d (and the %d hits' keys) both times", q, deltas[0], deltas[1], entries, hits)
		}
	}
}

// TestStringRestricts holds the string-function restricts to the
// reference on XMark-shaped documents, under every compression plan. On
// the first every item has at most one description of one text record,
// so the containers answer contains/starts-with/ends-with; each other one
// adds an item that breaks one condition of the scan — a value split over
// two text nodes ("a go" + "ld bar" is "a gold bar"), two descriptions
// (the per-tuple evaluation reads the first), text under a child element
// or a parlist, or beside it, two text records under one node (text split
// by an empty element) — and the conjunct stays per tuple, which the
// program's listing says. Text split by a comment or a processing
// instruction is one record, which the containers answer.
func TestStringRestricts(t *testing.T) {
	const base = `<item id="i0"><name>n0</name><description><text>a gold bar</text></description></item>` +
		`<item id="i1"><name>n1</name></item>` +
		`<item id="i2"><name>n2</name><description><text/></description></item>` +
		`<item id="i3"><name>n3</name><description><text>silver</text></description></item>`
	const asia = `<asia><item id="i4"><name>n4</name><description><text>golden</text></description></item>` +
		`<item id="i5"><name>n5</name><description><text>gol</text></description></item></asia>`
	docs := []struct{ extra, why string }{
		{"", ""},
		{`<description><text>a go</text><text>ld bar</text></description>`, "/site/regions/africa/item/description/text repeats under one parent"},
		{`<description><text>silver</text></description><description><text>gold</text></description>`, "/site/regions/africa/item/description repeats under one parent"},
		{`<description><text>go<bold>ld</bold></text></description>`, "/site/regions/africa/item/description has text at several paths"},
		{`<description><parlist><listitem><text>gold</text></listitem></parlist></description>`, "/site/regions/africa/item/description has text at several paths"},
		{`<description><text>go<b/>ld</text></description>`, "/site/regions/africa/item/description/text has several text records under one node"},
		{`<description><text>go<!--c-->ld</text></description>`, ""},
		{`<description><text>go<?pi x?>ld</text></description>`, ""},
		{`<description>go<!--c-->ld</description>`, "/site/regions/africa/item/description has text at several paths"},
	}
	queries := []string{
		`FOR $i IN /site//item WHERE contains($i/description, "gold") RETURN $i/name/text()`,
		`FOR $i IN /site//item WHERE starts-with($i/description, "a g") RETURN $i/@id`,
		`FOR $i IN /site//item WHERE ends-with($i/description, "ld") RETURN $i/@id`,
		`/site//item[contains(description, "gold")]/@id`,
		`/site//item[contains(description, "l") and starts-with(name, "n")]/@id`,
		`count(/site/regions/*/item[ends-with(description, "bar")])`,
		`FOR $i IN /site//item WHERE not(contains($i/description, "gold")) RETURN $i/@id`,
		`FOR $i IN /site//item WHERE contains($i/description, "") RETURN $i/@id`,
		`FOR $i IN /site//item WHERE contains($i/description/text/text(), "gold") RETURN $i/@id`,
		`FOR $i IN /site//item WHERE contains($i/@id, "1") AND starts-with($i/name, "n") RETURN $i/name/text()`,
		`FOR $r IN /site/regions/* RETURN <r>{FOR $i IN $r/item WHERE contains($i/description, "gold") RETURN $i/@id}</r>`,
		`count(FOR $i IN /site//item WHERE contains($i/description, "gold") RETURN $i)`,
		`FOR $i IN /site//item WHERE contains($i/description, "gold") AND number($i/name) > 0 RETURN 1`,
		`FOR $i IN /site//item RETURN number($i/name)`,
	}
	for _, d := range docs {
		extra := ""
		if d.extra != "" {
			extra = `<item id="i6"><name>n6</name>` + d.extra + `</item>`
		}
		doc := []byte(`<site><regions><africa>` + base + extra + `</africa>` + asia + `</regions></site>`)
		for _, plan := range []*storage.CompressionPlan{nil, {DefaultAlgorithm: storage.AlgHuffman}, {DefaultAlgorithm: storage.AlgHuTucker}} {
			s, err := storage.Load(doc, storage.LoadOptions{Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				agree(t, doc, s, q)
			}
			expr, err := xquery.Parse(queries[0])
			if err != nil {
				t.Fatal(err)
			}
			prog, err := engine.Compile(expr, s, queries[0])
			if err != nil {
				t.Fatal(err)
			}
			dis := prog.Disassemble()
			want := "; deferred: " + d.why
			if d.why == "" {
				want = "/site/regions/asia/item/description/text/#text"
			}
			if !strings.Contains(dis, want) {
				t.Fatalf("doc with %q: the listing lacks %q:\n%s", d.extra, want, dis)
			}
		}
	}
}

// TestStringRestrictScansOncePerRun: a string-function restrict whose
// domain is every item decodes each description record once per run, also
// when a sub-program reaches it once per outer tuple — three times here —
// and one over a one-item domain decodes that item's description alone.
// That is on Huffman, which decodes to test; on ALM, whose code automaton
// tests the compressed bytes, the scans decode no description at all — on
// a corpus large enough for the automaton to be smaller than the
// container — and the one-item domains still decode one each.
func TestStringRestrictScansOncePerRun(t *testing.T) {
	const every = 20
	doc := func(items int) []byte {
		var sb strings.Builder
		sb.WriteString("<site><regions><africa>")
		for i := 0; i < items; i++ {
			word := "silver"
			if i%every == 0 {
				word = "gold"
			}
			fmt.Fprintf(&sb, `<item><name>n%d</name><description><text>a %s ring</text></description></item>`, i, word)
		}
		sb.WriteString("</africa></regions></site>")
		return []byte(sb.String())
	}
	queries := []string{
		`FOR $i IN /site//item WHERE contains($i/description, "gold") RETURN $i/name/text()`,
		`FOR $k IN (1, 2, 3) RETURN count(FOR $i IN /site//item WHERE contains($i/description, "gold") RETURN $i)`,
		`FOR $r IN /site/regions/africa, $i IN $r/item[1] WHERE contains($i/description, "gold") RETURN $i/name/text()`,
		`FOR $k IN (1, 2, 3) RETURN count(FOR $i IN /site//item[1] WHERE contains($i/description, "gold") RETURN $i/name)`,
	}
	const huffman, alm = 60, 1000
	for _, run := range []struct {
		items int
		alg   string
		want  []int64 // decodes per query
	}{
		{huffman, storage.AlgHuffman, []int64{huffman + huffman/every, huffman, 2, 3}},
		{alm, storage.AlgALM, []int64{alm / every, 0, 2, 3}},
	} {
		doc := doc(run.items)
		s, err := storage.Load(doc, storage.LoadOptions{Plan: &storage.CompressionPlan{DefaultAlgorithm: run.alg}})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			agree(t, doc, s, q)
			before := storage.DecodeOps()
			if _, err := runVM(t, s, q); err != nil {
				t.Fatal(err)
			}
			if got := storage.DecodeOps() - before; got != run.want[i] {
				t.Errorf("%s: %s decodes %d values, want %d", run.alg, q, got, run.want[i])
			}
		}
	}
}

// TestStringRestrictsOnCodes: contains and ends-with run on ALM codes and
// starts-with as a range over XMark's item descriptions, where the listing
// says every description container is read on its compressed bytes, and
// each literal — one byte, whole words, spans of several words and
// punctuation, a literal no value holds — answers as the reference does.
func TestStringRestrictsOnCodes(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.5, Seed: 3})
	s, err := storage.Load(doc, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"contains", "ends-with", "starts-with"} {
		for _, lit := range []string{"e", "gold", "the ", "e t", "s.", ".", "zzqx"} {
			q := fmt.Sprintf(`FOR $i IN /site//item WHERE %s($i/description, %q) RETURN $i/name/text()`, fn, lit)
			expr, err := xquery.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := engine.Compile(expr, s, q)
			if err != nil {
				t.Fatal(err)
			}
			dis := prog.Disassemble()
			if n := strings.Count(dis, "on compressed bytes"); n != 6 {
				t.Errorf("%s: %d containers read on compressed bytes, want the 6 regions':\n%s", q, n, dis)
			}
			agree(t, doc, s, q)
			if _, err := runVM(t, s, q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
}

// TestStartsWithRange: starts-with as the interval [P, succ(P)) of the
// record order answers as the reference does on each string codec, for
// prefixes of multi-byte characters and values equal to the prefix, on
// element text and on attributes.
func TestStartsWithRange(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i, v := range []string{"é", "éa", "éÿ", "ê", "e", "ez", "z", "ÿÿ", "ÿ", "dÿ", "f"} {
		fmt.Fprintf(&sb, `<e k="%s"><s>%s</s><n>%d</n></e>`, v, v, i)
	}
	sb.WriteString("</r>")
	doc := []byte(sb.String())
	for _, alg := range []string{storage.AlgALM, storage.AlgHuffman, storage.AlgHuTucker} {
		s, err := storage.Load(doc, storage.LoadOptions{Plan: &storage.CompressionPlan{DefaultAlgorithm: alg}})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{"é", "e", "ÿ", "ÿÿ", "d", "z", "a"} {
			agree(t, doc, s, fmt.Sprintf(`FOR $e IN /r/e WHERE starts-with($e/s, %q) RETURN $e/n/text()`, p))
			agree(t, doc, s, fmt.Sprintf(`/r/e[starts-with(@k, %q)]/n/text()`, p))
		}
	}
}
