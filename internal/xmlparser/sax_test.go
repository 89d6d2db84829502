package xmlparser

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// event is a retained copy of an Event, which itself is only valid
// during the callback.
type event struct {
	Kind       EventKind
	Name, Text string
	Attrs      [][2]string
}

func collect(t *testing.T, src string) []event {
	t.Helper()
	var evs []event
	p := NewParser([]byte(src))
	err := p.Parse(func(ev *Event) error {
		cp := event{Kind: ev.Kind, Name: string(ev.Name), Text: string(ev.Text)}
		for _, a := range ev.Attrs {
			cp.Attrs = append(cp.Attrs, [2]string{string(a.Name), string(a.Value)})
		}
		evs = append(evs, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return evs
}

func TestSimpleDocument(t *testing.T) {
	evs := collect(t, `<a><b x="1">hi</b><c/></a>`)
	want := []event{
		{Kind: EventStartElement, Name: "a"},
		{Kind: EventStartElement, Name: "b", Attrs: [][2]string{{"x", "1"}}},
		{Kind: EventText, Text: "hi"},
		{Kind: EventEndElement, Name: "b"},
		{Kind: EventStartElement, Name: "c"},
		{Kind: EventEndElement, Name: "c"},
		{Kind: EventEndElement, Name: "a"},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("events = %+v, want %+v", evs, want)
	}
}

func TestPrologAndMisc(t *testing.T) {
	src := `<?xml version="1.0" encoding="UTF-8"?>
<!-- header -->
<!DOCTYPE site [ <!ELEMENT site ANY> ]>
<site/>
<!-- trailer -->`
	evs := collect(t, src)
	if len(evs) != 2 || evs[0].Name != "site" {
		t.Fatalf("unexpected events: %+v", evs)
	}
}

func TestEntities(t *testing.T) {
	evs := collect(t, `<a b="&lt;&amp;&quot;&#65;">x &gt; y &#x41;&apos;</a>`)
	if got, want := evs[0].Attrs[0][1], `<&"A`; got != want {
		t.Fatalf("attr = %q, want %q", got, want)
	}
	if got, want := evs[1].Text, "x > y A'"; got != want {
		t.Fatalf("text = %q, want %q", got, want)
	}
}

func TestCDATA(t *testing.T) {
	evs := collect(t, `<a>before<![CDATA[<raw> & stuff]]>after</a>`)
	if len(evs) != 3 {
		t.Fatalf("events: %+v", evs)
	}
	if evs[1].Text != "before<raw> & stuffafter" {
		t.Fatalf("CDATA text = %q", evs[1].Text)
	}
}

func TestCommentsAndPIsInContent(t *testing.T) {
	evs := collect(t, `<a>x<!-- note --><?target data?>y</a>`)
	kinds := []EventKind{EventStartElement, EventText, EventComment, EventProcInst, EventText, EventEndElement}
	if len(evs) != len(kinds) {
		t.Fatalf("got %d events: %+v", len(evs), evs)
	}
	for i, k := range kinds {
		if evs[i].Kind != k {
			t.Fatalf("event %d kind = %d, want %d", i, evs[i].Kind, k)
		}
	}
	if evs[2].Text != " note " {
		t.Fatalf("comment = %q", evs[2].Text)
	}
	if evs[3].Name != "target" || evs[3].Text != "data" {
		t.Fatalf("pi = %+v", evs[3])
	}
}

func TestWhitespaceHandling(t *testing.T) {
	src := "<a>\n  <b>v</b>\n</a>"
	evs := collect(t, src)
	for _, ev := range evs {
		if ev.Kind == EventText && strings.TrimSpace(ev.Text) == "" {
			t.Fatal("whitespace-only text reported by default")
		}
	}
	var texts int
	p := NewParser([]byte(src))
	p.WhitespaceText = true
	if err := p.Parse(func(ev *Event) error {
		if ev.Kind == EventText {
			texts++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if texts != 3 {
		t.Fatalf("with WhitespaceText, got %d text events, want 3", texts)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		``,
		`<a>`,
		`<a></b>`,
		`<a x=5></a>`,
		`<a x="1></a>`,
		`<a>&unknown;</a>`,
		`<a>&#xZZ;</a>`,
		`<a><b></a></b>`,
		`<a/><b/>`,
		`<a>text`,
		`plain text`,
		`<a x="<"></a>`,
		`<a><!-- unterminated</a>`,
		`<a><![CDATA[ unterminated</a>`,
	}
	for _, src := range bad {
		p := NewParser([]byte(src))
		if err := p.Parse(func(*Event) error { return nil }); err == nil {
			t.Fatalf("no error for %q", src)
		}
	}
}

func TestSyntaxErrorType(t *testing.T) {
	p := NewParser([]byte(`<a></b>`))
	err := p.Parse(func(*Event) error { return nil })
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Offset <= 0 || se.Msg == "" {
		t.Fatalf("uninformative error: %+v", se)
	}
}

func TestHandlerErrorAborts(t *testing.T) {
	p := NewParser([]byte(`<a><b/><c/></a>`))
	calls := 0
	wantErr := "stop"
	err := p.Parse(func(*Event) error {
		calls++
		if calls == 2 {
			return &SyntaxError{Msg: wantErr}
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("handler error not propagated: %v", err)
	}
	if calls != 2 {
		t.Fatalf("handler called %d times after abort", calls)
	}
}

func TestDeepNesting(t *testing.T) {
	depth := 2000
	src := strings.Repeat("<d>", depth) + "x" + strings.Repeat("</d>", depth)
	starts := 0
	p := NewParser([]byte(src))
	if err := p.Parse(func(ev *Event) error {
		if ev.Kind == EventStartElement {
			starts++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if starts != depth {
		t.Fatalf("starts = %d, want %d", starts, depth)
	}
}

func TestAttributesSingleQuotes(t *testing.T) {
	evs := collect(t, `<a x='v1' y="v2"/>`)
	if len(evs[0].Attrs) != 2 || evs[0].Attrs[0][1] != "v1" || evs[0].Attrs[1][1] != "v2" {
		t.Fatalf("attrs = %+v", evs[0].Attrs)
	}
}

func TestEscapeHelpers(t *testing.T) {
	if got := string(EscapeText(nil, `a<b>&c`)); got != "a&lt;b&gt;&amp;c" {
		t.Fatalf("EscapeText = %q", got)
	}
	if got := string(EscapeAttr(nil, `a"<&`)); got != "a&quot;&lt;&amp;" {
		t.Fatalf("EscapeAttr = %q", got)
	}
	// The escapers expand in place: what precedes the value stays, and
	// every placing of specials — none, all, first, last — comes out as
	// the byte-by-byte definition has it, parsed back to the value.
	for _, v := range []string{"", "plain", "<", "&&&&", "<a", "a>", "a\rb\nc\td", `"q"`, "x<y&z>\"\r"} {
		for name, esc := range map[string]func([]byte, string) []byte{"text": EscapeText[string], "attr": EscapeAttr[string]} {
			var want []byte
			for i := 0; i < len(v); i++ {
				switch c := v[i]; {
				case c == '<':
					want = append(want, "&lt;"...)
				case c == '&':
					want = append(want, "&amp;"...)
				case c == '>' && name == "text":
					want = append(want, "&gt;"...)
				case c == '"' && name == "attr":
					want = append(want, "&quot;"...)
				case c == '\r', name == "attr" && (c == '\n' || c == '\t'):
					want = append(want, fmt.Sprintf("&#%d;", c)...)
				default:
					want = append(want, c)
				}
			}
			if got := string(esc([]byte("head"), v)); got != "head"+string(want) {
				t.Fatalf("%s escape of %q = %q, want head%s", name, v, got, want)
			}
			doc := "<a>" + string(want) + "</a>"
			if name == "attr" {
				doc = `<a x="` + string(want) + `"/>`
			}
			back := ""
			for _, ev := range collect(t, doc) {
				if ev.Kind == EventStartElement && len(ev.Attrs) == 1 {
					back = ev.Attrs[0][1]
				} else if ev.Kind == EventText {
					back = ev.Text
				}
			}
			if back != v {
				t.Fatalf("%s reads back as %q, want %q", doc, back, v)
			}
		}
	}
}

func BenchmarkParse(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 1000; i++ {
		sb.WriteString(`<person id="p1"><name>Jo Doe</name><age>42</age></person>`)
	}
	sb.WriteString("</root>")
	src := []byte(sb.String())
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewParser(src)
		if err := p.Parse(func(*Event) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
