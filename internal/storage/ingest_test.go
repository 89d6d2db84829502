package storage

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/xmlparser"
)

// TestLoadAllocationCeiling holds Load to a tenth of what it allocated
// while it built a NodeRecord tree with per-node child and value slices,
// parsed into string events and mined ALM tokens through string-keyed
// maps: 108 677 allocations for this document, serially.
func TestLoadAllocationCeiling(t *testing.T) {
	const before = 108_677
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.25, Seed: 7})
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Load(doc, LoadOptions{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > before/10 {
		t.Fatalf("Load allocates %.0f times, ceiling %d (a tenth of %d)", allocs, before/10, before)
	}
}

// manyNames is <r><n0/>…<n(n-1)/></r>: n+1 distinct names.
func manyNames(n int) []byte {
	var sb bytes.Buffer
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<n%d/>", i)
	}
	sb.WriteString("</r>")
	return sb.Bytes()
}

// TestTooManyNames: tag codes are 16-bit, and the 65 537th distinct name
// used to wrap around to code 0 — a repository that answered with the
// wrong tags and that Open then refused. Every way a dictionary grows
// reports it instead.
func TestTooManyNames(t *testing.T) {
	const want = "names exceed the 16-bit tag space"
	fits := manyNames(maxNames - 1)
	s, err := Load(fits, LoadOptions{})
	if err != nil {
		t.Fatalf("%d names: %v", maxNames, err)
	}
	if s.TagOf(NodeID(maxNames)) != fmt.Sprintf("n%d", maxNames-2) {
		t.Fatalf("last node is <%s>", s.TagOf(NodeID(maxNames)))
	}

	over := manyNames(maxNames)
	if _, err := Load(over, LoadOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Load of %d names: %v", maxNames+1, err)
	}
	if _, err := Load([]byte(`<r x="1"/>`), LoadOptions{Dictionary: s.Names}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Load of a new attribute on a full dictionary: %v", err)
	}
	if _, err := Load([]byte("<r/>"), LoadOptions{Dictionary: append(s.Names[:maxNames:maxNames], "one-more")}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Load with %d pre-seeded names: %v", maxNames+1, err)
	}
	if _, err := SplitXML(over, 2, 0); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("SplitXML of %d names: %v", maxNames+1, err)
	}
}

// TestAttributeLevelOverflow: an attribute sits one level below its
// element, so on an element at the parser's depth limit it has no level.
func TestAttributeLevelOverflow(t *testing.T) {
	deep := func(leaf string) []byte {
		d := xmlparser.MaxDepth - 1
		return []byte(strings.Repeat("<a>", d) + leaf + strings.Repeat("</a>", d))
	}
	s, err := Load(deep("<b>x</b>"), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.LevelOf(NodeID(xmlparser.MaxDepth)); got != xmlparser.MaxDepth {
		t.Fatalf("deepest element at level %d", got)
	}
	if _, err := Load(deep(`<b k="v"/>`), LoadOptions{}); err == nil || !strings.Contains(err.Error(), "level") {
		t.Fatalf("attribute below the deepest element: %v", err)
	}
}

// saxSeeds are documents that reach every branch of the scanner: each
// kind of markup, references and CDATA in text and attribute values,
// and one failure of every kind.
var saxSeeds = []string{
	tinyDoc,
	`<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a ANY>]><!-- c --><a/><?pi?>`,
	`<a b="&lt;&amp;&quot;&#65;" c='&apos;&#x42;' d="plain" e=''>x &gt; y<![CDATA[<raw> & ]]>z</a>`,
	`<a>t1<b k="1" k="2"/>t2<!-- c -->t3<?p q?>t4<b>&#32;</b><b> &#233; </b></a>`,
	`<a><b>1</b><b>22</b><b>3</b><c>1999-01-02</c><c>2001-06-10</c><d>1.50</d><d>22.25</d></a>`,
	`<a x="1"><a x="2"><a x="&amp;3">deep</a>tail</a></a>`,
	`<a><b></a></b>`, `<a>&unknown;</a>`, `<a x="<"/>`, `<a><![CDATA[x</a>`, `<a><?></a>`, `<a`, `<a/>x`, ``,
}

// FuzzSAX drives the scanner and the loader over arbitrary bytes. Neither
// may panic; the loader must accept exactly what the parser accepts; the
// store must hold the document the DOM holds; and nothing of the store
// may alias the source once Load returns — the source is overwritten and
// the store serialized again.
func FuzzSAX(f *testing.F) {
	for _, s := range saxSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		src := bytes.Clone(doc)
		dom, domErr := xmlparser.BuildDOM(src)
		s, err := Load(src, LoadOptions{Parallelism: 1})
		if (err == nil) != (domErr == nil) {
			t.Fatalf("Load: %v, BuildDOM: %v", err, domErr)
		}
		if !bytes.Equal(src, doc) {
			t.Fatal("ingest changed the document")
		}
		if err != nil {
			return
		}
		xml, err := s.Serialize(nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, err := xmlparser.BuildDOM(xml)
		if err != nil {
			t.Fatalf("store serializes to %q: %v", xml, err)
		}
		if got, want := again.Root.Serialize(nil), dom.Root.Serialize(nil); !bytes.Equal(got, want) {
			t.Fatalf("store holds %q, document is %q", got, want)
		}
		repo := s.AppendBinary(nil)
		for i := range src {
			src[i] = '<'
		}
		if after, err := s.Serialize(nil, 1); err != nil || !bytes.Equal(after, xml) {
			t.Fatalf("store aliases its source: %q became %q (%v)", xml, after, err)
		}
		if !bytes.Equal(s.AppendBinary(nil), repo) {
			t.Fatal("repository bytes alias the source")
		}
		if _, err := LoadBinary(repo); err != nil {
			t.Fatalf("repository does not reopen: %v", err)
		}
	})
}
