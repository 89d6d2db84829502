package xmlparser

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// within reports whether b is a view of src.
func within(src, b []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(unsafe.Pointer(unsafe.SliceData(src)))
	return p >= lo && p+uintptr(len(b)) <= lo+uintptr(len(src))
}

// trace renders a parse as one line: the events in order, then the
// syntax error, if any, with its offset. Its handler is as hostile as the
// Event contract allows — once an event is rendered it overwrites the
// event and everything Decoded, which live in the parser's buffer — and
// it checks the other half of the contract: what is not Decoded is a view
// of the document, capped so an append cannot reach it.
func trace(tb testing.TB, src string, whitespaceText bool) string {
	var sb strings.Builder
	doc := []byte(src)
	p := NewParser(doc)
	p.WhitespaceText = whitespaceText
	view := func(what string, b []byte, decoded bool) {
		if len(b) > 0 && within(doc, b) == decoded {
			tb.Errorf("%q: %s %q: Decoded=%v but in the document=%v", src, what, b, decoded, !decoded)
		}
		if cap(b) != len(b) {
			tb.Errorf("%q: %s %q has spare capacity %d", src, what, b, cap(b)-len(b))
		}
		if decoded {
			for i := range b {
				b[i] = '#'
			}
		}
	}
	err := p.Parse(func(ev *Event) error {
		switch ev.Kind {
		case EventStartElement:
			fmt.Fprintf(&sb, "S %s", ev.Name)
			for _, a := range ev.Attrs {
				fmt.Fprintf(&sb, " %s=%q", a.Name, a.Value)
			}
		case EventEndElement:
			fmt.Fprintf(&sb, "E %s", ev.Name)
		case EventText:
			fmt.Fprintf(&sb, "T %q", ev.Text)
		case EventComment:
			fmt.Fprintf(&sb, "C %q", ev.Text)
		case EventProcInst:
			fmt.Fprintf(&sb, "P %s %q", ev.Name, ev.Text)
		}
		sb.WriteString("; ")
		view("name", ev.Name, false)
		view("text", ev.Text, ev.Decoded)
		for _, a := range ev.Attrs {
			view("attribute name", a.Name, false)
			view("attribute value", a.Value, a.Decoded)
		}
		clear(ev.Attrs)
		*ev = Event{Attrs: ev.Attrs}
		return nil
	})
	if string(doc) != src {
		tb.Errorf("%q: the parse changed the document to %q", src, doc)
	}
	if err != nil {
		se := err.(*SyntaxError)
		fmt.Fprintf(&sb, "!%d %s", se.Offset, se.Msg)
	}
	return sb.String()
}

// conformance is the event sequence (kind, name, text, attributes) and
// the syntax error (offset, message) of the recursive string-event
// parser this scanner replaced, recorded from it input by input. Rows
// with whitespaceText set are the inputs it changes the events of.
var conformance = []struct {
	src            string
	whitespaceText bool
	want           string
}{
	{"<a><b x=\"1\">hi</b><c/></a>", false, "S a; S b x=\"1\"; T \"hi\"; E b; S c; E c; E a; "},
	{"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- header -->\n<!DOCTYPE site [ <!ELEMENT site ANY> ]>\n<site/>\n<!-- trailer --><?pi?>  ", false, "S site; E site; "},
	{"<a>before<![CDATA[<raw> & stuff]]>after</a>", false, "S a; T \"before<raw> & stuffafter\"; E a; "},
	{"<a><![CDATA[only]]></a>", false, "S a; T \"only\"; E a; "},
	{"<a><![CDATA[]]></a>", false, "S a; E a; "},
	{"<a>x<![CDATA[]]>y</a>", false, "S a; T \"xy\"; E a; "},
	{"<a><![CDATA[one]]><![CDATA[two]]></a>", false, "S a; T \"onetwo\"; E a; "},
	{"<a><![CDATA[  ]]></a>", false, "S a; E a; "},
	{"<a><![CDATA[  ]]></a>", true, "S a; T \"  \"; E a; "},
	{"<a> <![CDATA[ ]]> </a>", false, "S a; E a; "},
	{"<a> <![CDATA[ ]]> </a>", true, "S a; T \"   \"; E a; "},
	{"<a><![CDATA[x]]>&amp;<![CDATA[y]]> z</a>", false, "S a; T \"x&y z\"; E a; "},
	{"<a><![CDATA[]]]]><![CDATA[>]]></a>", false, "S a; T \"]]>\"; E a; "},
	{"<a><![CDATA[a]]><b/><![CDATA[c]]></a>", false, "S a; T \"a\"; S b; E b; T \"c\"; E a; "},
	{"<a>&lt;&gt;&amp;&apos;&quot;</a>", false, "S a; T \"<>&'\\\"\"; E a; "},
	{"<a>x &gt; y &#x41;&#65;&#X42;</a>", false, "S a; T \"x > y AAB\"; E a; "},
	{"<a>&#x1F600;&#233;&#x20AC;</a>", false, "S a; T \"😀é€\"; E a; "},
	{"<a>&#0;&#xD800;&#x110000;&#xFFFFFFFF;</a>", false, "S a; T \"\\x00���\"; E a; "},
	{"<a>pre&amp;post</a>", false, "S a; T \"pre&post\"; E a; "},
	{"<a>&amp;</a>", false, "S a; T \"&\"; E a; "},
	{"<a>&#32;</a>", false, "S a; E a; "},
	{"<a>&#32;</a>", true, "S a; T \" \"; E a; "},
	{"<a> &#32; </a>", false, "S a; E a; "},
	{"<a> &#32; </a>", true, "S a; T \"   \"; E a; "},
	{"<a>&#32;x</a>", false, "S a; T \" x\"; E a; "},
	{"<a b=\"&lt;&amp;&quot;&#65;\" c='&apos;&#x42;' d=\"plain\" e=''/>", false, "S a b=\"<&\\\"A\" c=\"'B\" d=\"plain\" e=\"\"; E a; "},
	{"<a b=\"x&amp;y&amp;z\" c=\"&gt;\">t</a>", false, "S a b=\"x&y&z\" c=\">\"; T \"t\"; E a; "},
	{"<a x='v1' y=\"v2\"/>", false, "S a x=\"v1\" y=\"v2\"; E a; "},
	{"<a x=\"a>b\" y='\"' z=\"'\"/>", false, "S a x=\"a>b\" y=\"\\\"\" z=\"'\"; E a; "},
	{"<a x = \"1\"\n y\t=\t'2' />", false, "S a x=\"1\" y=\"2\"; E a; "},
	{"<a x=\"line1\nline2\"/>", false, "S a x=\"line1\\nline2\"; E a; "},
	{"<a x=\"1\" x=\"2\"/>", false, "S a x=\"1\" x=\"2\"; E a; "},
	{"<a>x<!-- note --><?target data?>y</a>", false, "S a; T \"x\"; C \" note \"; P target \"data\"; T \"y\"; E a; "},
	{"<a><!-- lead -->x</a>", false, "S a; C \" lead \"; T \"x\"; E a; "},
	{"<a>x<!----><!-- - -- -->y</a>", false, "S a; T \"x\"; C \"\"; C \" - -- \"; T \"y\"; E a; "},
	{"<a><?p?><?q   spaced   body ?><?r\tb?>z</a>", false, "S a; P p \"\"; P q \"spaced   body \"; P r \"b\"; T \"z\"; E a; "},
	{"<a> <!-- c --> <b/> <?p?> </a>", false, "S a; C \" c \"; S b; E b; P p \"\"; E a; "},
	{"<a> <!-- c --> <b/> <?p?> </a>", true, "S a; T \" \"; C \" c \"; T \" \"; S b; E b; T \" \"; P p \"\"; T \" \"; E a; "},
	{"<a>t1<b/>t2<b></b>t3</a>", false, "S a; T \"t1\"; S b; E b; T \"t2\"; S b; E b; T \"t3\"; E a; "},
	{"<a/>", false, "S a; E a; "},
	{"<a />", false, "S a; E a; "},
	{"<a x=\"1\"/>", false, "S a x=\"1\"; E a; "},
	{"<a><b/><c /><d x='1' /></a>", false, "S a; S b; E b; S c; E c; S d x=\"1\"; E d; E a; "},
	{"<a>\n  <b>v</b>\n</a>", false, "S a; S b; T \"v\"; E b; E a; "},
	{"<a>\n  <b>v</b>\n</a>", true, "S a; T \"\\n  \"; S b; T \"v\"; E b; T \"\\n\"; E a; "},
	{"<a>\t\r\n </a>", false, "S a; E a; "},
	{"<a>\t\r\n </a>", true, "S a; T \"\\t\\r\\n \"; E a; "},
	{"<a> x </a>", false, "S a; T \" x \"; E a; "},
	{"<a></a >", false, "S a; E a; "},
	{"<a></a\n>", false, "S a; E a; "},
	{"<a:b xmlns:a=\"u\"><a:c a:d=\"1\"/></a:b>", false, "S a:b xmlns:a=\"u\"; S a:c a:d=\"1\"; E a:c; E a:b; "},
	{"<_a-b.c9 é=\"1\">é</_a-b.c9>", false, "S _a-b.c9 é=\"1\"; T \"é\"; E _a-b.c9; "},
	{"<a><b><c><d>deep</d></c></b></a>", false, "S a; S b; S c; S d; T \"deep\"; E d; E c; E b; E a; "},
	{"<a>1<b>2<c>3</c>4</b>5</a>", false, "S a; T \"1\"; S b; T \"2\"; S c; T \"3\"; E c; T \"4\"; E b; T \"5\"; E a; "},
	{"", false, "!0 expected root element"},
	{"   ", false, "!3 expected root element"},
	{"plain text", false, "!0 expected root element"},
	{"x<a/>", false, "!0 expected root element"},
	{"<a/>x", false, "S a; E a; !4 trailing content after root element"},
	{"<a/><b/>", false, "S a; E a; !4 trailing content after root element"},
	{"<a/><!-- x", false, "S a; E a; !4 trailing content after root element"},
	{"<a/><?pi", false, "S a; E a; !4 trailing content after root element"},
	{"<a/> <!-- ok --> <", false, "S a; E a; !17 trailing content after root element"},
	{"<!FOO><a/>", false, "!0 unexpected markup in prolog"},
	{"<!DOCTYPE a [ <a/>", false, "!0 unterminated DOCTYPE"},
	{"<!-- never", false, "!0 unterminated comment"},
	{"<?xml never", false, "!0 unterminated processing instruction"},
	{"<!DOCTYPE a><a/>", false, "S a; E a; "},
	{"<", false, "!1 expected name"},
	{"<a", false, "!2 unterminated start tag \"a\" (opened at 0)"},
	{"<a ", false, "!3 unterminated start tag \"a\" (opened at 0)"},
	{"<a x", false, "!4 attribute \"x\" missing '='"},
	{"<a x=", false, "!5 expected attribute value"},
	{"<a x=5></a>", false, "!5 attribute value must be quoted"},
	{"<a x=\"", false, "!6 unterminated attribute value"},
	{"<a x=\"1", false, "!7 unterminated attribute value"},
	{"<a x=\"1></a>", false, "!8 '<' in attribute value"},
	{"<a x=\"1\"", false, "!8 unterminated start tag \"a\" (opened at 0)"},
	{"<a x=\"1\"y=\"2\"/>", false, "S a x=\"1\" y=\"2\"; E a; "},
	{"<a/", false, "!2 malformed empty-element tag"},
	{"<a/ >", false, "!2 malformed empty-element tag"},
	{"<a>", false, "S a; !3 unexpected end of document inside element \"a\""},
	{"<a><", false, "S a; !3 truncated markup"},
	{"<a></", false, "S a; !5 expected name"},
	{"<a></a", false, "S a; !6 malformed end tag </a>"},
	{"<a></a x>", false, "S a; !7 malformed end tag </a>"},
	{"<a></b>", false, "S a; !6 mismatched end tag: got </b>, want </a>"},
	{"<a></ab>", false, "S a; !7 mismatched end tag: got </ab>, want </a>"},
	{"<ab></a>", false, "S ab; !7 mismatched end tag: got </a>, want </ab>"},
	{"<a><b></a></b>", false, "S a; S b; !9 mismatched end tag: got </a>, want </b>"},
	{"<a><b><c></b></c></a>", false, "S a; S b; S c; !12 mismatched end tag: got </b>, want </c>"},
	{"<a>text", false, "S a; !7 unexpected end of document inside element \"a\""},
	{"<a><b>text</b>", false, "S a; S b; T \"text\"; E b; !14 unexpected end of document inside element \"a\""},
	{"<a>&", false, "S a; !3 unterminated entity reference"},
	{"<a>&amp", false, "S a; !3 unterminated entity reference"},
	{"<a>&unknown;</a>", false, "S a; !12 unknown entity &unknown;"},
	{"<a>&#xZZ;</a>", false, "S a; !9 bad character reference &#xZZ;"},
	{"<a>&;</a>", false, "S a; !5 unknown entity &;"},
	{"<a>&#;</a>", false, "S a; !6 bad character reference &#;"},
	{"<a>&toolongentityname;</a>", false, "S a; !3 unterminated entity reference"},
	{"<a>&#1234567890;</a>", false, "S a; !3 unterminated entity reference"},
	{"<a x=\"&bad;\"/>", false, "!11 unknown entity &bad;"},
	{"<a x=\"&amp\"/>", false, "!6 unterminated entity reference"},
	{"<a x=\"<\"></a>", false, "!6 '<' in attribute value"},
	{"<a><!", false, "S a; !3 unexpected markup"},
	{"<a><!-", false, "S a; !3 unexpected markup"},
	{"<a><!-- unterminated</a>", false, "S a; !3 unterminated comment"},
	{"<a><![CDATA[ unterminated</a>", false, "S a; !3 unterminated CDATA section"},
	{"<a><![CDAT[x]]></a>", false, "S a; !3 unexpected markup"},
	{"<a><!DOCTYPE x></a>", false, "S a; !3 unexpected markup"},
	{"<a><?pi unterminated</a>", false, "S a; !3 unterminated processing instruction"},
	{"<1a/>", false, "!1 expected name"},
	{"<a 1x=\"2\"/>", false, "!3 expected name"},
	{"<a><1/></a>", false, "S a; !4 expected name"},
	{"<a></1>", false, "S a; !5 expected name"},
	{"< a/>", false, "!1 expected name"},
	{"<a>x</a>y", false, "S a; T \"x\"; E a; !8 trailing content after root element"},
	{"<a>]]></a>", false, "S a; T \"]]>\"; E a; "},
	{"<a>a>b</a>", false, "S a; T \"a>b\"; E a; "},
}

func TestConformance(t *testing.T) {
	for _, c := range conformance {
		if got := trace(t, c.src, c.whitespaceText); got != c.want {
			t.Errorf("%q (WhitespaceText=%v):\n got %s\nwant %s", c.src, c.whitespaceText, got, c.want)
		}
	}
}

// TestProcInstWithoutTarget: "<?>" is not a processing instruction (the
// parser this one replaced took its "?>" for the terminator and sliced
// out of range reporting it).
func TestProcInstWithoutTarget(t *testing.T) {
	for src, want := range map[string]string{
		`<a><?></a>`:       "S a; !3 unterminated processing instruction",
		`<a><?>x?></a>`:    `S a; P >x ""; E a; `,
		`<?><a/>`:          "!0 unterminated processing instruction",
		`<a/><?>`:          "S a; E a; !4 trailing content after root element",
		`<a><?p?><!----->`: `S a; P p ""; C "-"; !16 unexpected end of document inside element "a"`,
	} {
		if got := trace(t, src, false); got != want {
			t.Errorf("%q:\n got %s\nwant %s", src, got, want)
		}
	}
}

// TestDepthLimit: nesting is bounded by MaxDepth and costs no goroutine
// stack, so a nesting bomb is a syntax error and not a dead process.
func TestDepthLimit(t *testing.T) {
	parse := func(depth int, leaf string) (starts int, err error) {
		src := strings.Repeat("<a>", depth) + leaf + strings.Repeat("</a>", depth)
		err = NewParser([]byte(src)).Parse(func(ev *Event) error {
			if ev.Kind == EventStartElement {
				starts++
			}
			return nil
		})
		return starts, err
	}
	if n, err := parse(MaxDepth-1, "<leaf/>"); err != nil || n != MaxDepth {
		t.Fatalf("depth %d: %d elements, %v", MaxDepth, n, err)
	}
	for _, leaf := range []string{"<leaf/>", "<leaf>x</leaf>"} {
		_, err := parse(MaxDepth, leaf)
		se, ok := err.(*SyntaxError)
		if !ok || se.Offset != 3*MaxDepth || !strings.Contains(se.Msg, "element depth exceeds 65535") {
			t.Fatalf("depth %d: error %v", MaxDepth+1, err)
		}
	}
	// Six million levels: a recursive parser dies of stack overflow here.
	if _, err := parse(6_000_000, ""); err == nil {
		t.Fatal("nesting bomb accepted")
	}
}
