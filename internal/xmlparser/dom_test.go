package xmlparser

import (
	"strings"
	"testing"
)

const sampleDoc = `<site>
  <people>
    <person id="p0"><name>Alice</name><age>30</age></person>
    <person id="p1"><name>Bob</name></person>
  </people>
  <regions><europe><item id="i0"><name>ring</name></item></europe></regions>
</site>`

func TestBuildDOMStructure(t *testing.T) {
	doc, err := BuildDOM([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Name != "site" {
		t.Fatalf("root = %q", doc.Root.Name)
	}
	people := doc.Root.Children[0]
	if people.Name != "people" || len(people.Children) != 2 {
		t.Fatalf("people = %+v", people)
	}
	p0 := people.Children[0]
	if id, ok := p0.Attr("id"); !ok || id != "p0" {
		t.Fatalf("p0 id = %q, %v", id, ok)
	}
	if _, ok := p0.Attr("missing"); ok {
		t.Fatal("missing attribute reported present")
	}
	if got := p0.TextContent(); got != "Alice30" {
		t.Fatalf("TextContent = %q", got)
	}
	// Parent pointers are consistent.
	doc.Root.Walk(func(n *Node) {
		for _, c := range n.Children {
			if c.Parent != n {
				t.Fatalf("child %v has wrong parent", c)
			}
		}
		for _, a := range n.Attrs {
			if a.Parent != n {
				t.Fatal("attr has wrong parent")
			}
		}
	})
}

func TestSerializeRoundTrip(t *testing.T) {
	doc, err := BuildDOM([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	out := doc.Root.Serialize(nil)
	doc2, err := BuildDOM(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	out2 := doc2.Root.Serialize(nil)
	if string(out) != string(out2) {
		t.Fatalf("serialize not stable:\n%s\n%s", out, out2)
	}
}

func TestSerializeEscapes(t *testing.T) {
	doc, err := BuildDOM([]byte(`<a x="&lt;&quot;">&amp;text&lt;</a>`))
	if err != nil {
		t.Fatal(err)
	}
	out := string(doc.Root.Serialize(nil))
	if out != `<a x="&lt;&quot;">&amp;text&lt;</a>` {
		t.Fatalf("escaped serialization = %q", out)
	}
}

func TestWalkOrder(t *testing.T) {
	doc, _ := BuildDOM([]byte(`<a><b/><c><d/></c><e/></a>`))
	var order []string
	doc.Root.Walk(func(n *Node) {
		if n.Kind == NodeElement {
			order = append(order, n.Name)
		}
	})
	if strings.Join(order, "") != "abcde" {
		t.Fatalf("walk order = %v", order)
	}
}

func TestCollectStats(t *testing.T) {
	st, err := CollectStats([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if st.Elements != 11 {
		t.Fatalf("Elements = %d, want 11", st.Elements)
	}
	if st.Attributes != 3 {
		t.Fatalf("Attributes = %d, want 3", st.Attributes)
	}
	if st.TextNodes != 4 {
		t.Fatalf("TextNodes = %d, want 4", st.TextNodes)
	}
	// Alice + 30 + Bob + ring + p0 + p1 + i0 = 5+2+3+4+2+2+2
	if st.ValueBytes != 20 {
		t.Fatalf("ValueBytes = %d, want 20", st.ValueBytes)
	}
	if st.MaxDepth != 5 { // site/regions/europe/item/name
		t.Fatalf("MaxDepth = %d, want 5", st.MaxDepth)
	}
	if st.Bytes != len(sampleDoc) {
		t.Fatalf("Bytes = %d", st.Bytes)
	}
	if s := st.ValueShare(); s <= 0 || s >= 1 {
		t.Fatalf("ValueShare = %v", s)
	}
}

func TestBuildDOMErrors(t *testing.T) {
	if _, err := BuildDOM([]byte(`<a></b>`)); err == nil {
		t.Fatal("mismatched tags accepted")
	}
	if _, err := BuildDOM(nil); err == nil {
		t.Fatal("empty document accepted")
	}
}
