package engine_test

import (
	"bytes"
	"strings"
	"testing"

	"xquec/internal/engine"
)

// TestFunctionLibrary covers every function of the engine's library.
func TestFunctionLibrary(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	cases := []struct {
		q, want string
	}{
		{`count(/site/people/person)`, "3"},
		{`count(())`, "0"},
		{`sum(())`, "0"},
		{`sum(/site/people/person/age)`, "96"},
		{`avg(/site/people/person/age)`, "32"},
		{`min(/site/people/person/age)`, "25"},
		{`max(/site/people/person/age)`, "41"},
		{`contains("haystack", "ays")`, "true"},
		{`contains("haystack", "xyz")`, "false"},
		{`starts-with("haystack", "hay")`, "true"},
		{`ends-with("haystack", "ack")`, "true"},
		{`ends-with("haystack", "hay")`, "false"},
		{`not(1 = 2)`, "true"},
		{`empty(())`, "true"},
		{`empty(/site/people/person)`, "false"},
		{`exists(/site/people/person)`, "true"},
		{`exists(/site/missing)`, "false"},
		{`string(42)`, "42"},
		{`string(/site/people/person[1]/name)`, "Alice"},
		{`number("3.5") + 1`, "4.5"},
		{`string-length("hello")`, "5"},
		{`concat("a", "b", 3)`, "ab3"},
		{`string-join(("x", "y", "z"), "-")`, "x-y-z"},
		{`distinct-values(("a", "b", "a"))`, "a\nb"},
		{`if (1 < 2) then "yes" else "no"`, "yes"},
		{`if (2 < 1) then "yes" else "no"`, "no"},
		{`data(/site/people/person[1]/age/text())`, "30"},
		{`1 div 4`, "0.25"},
		{`7 mod 3`, "1"},
		{`-7 mod 3`, "-1"},
		{`-(3)`, "-3"},
		{`2 * 3 + 4`, "10"},
		{`2 + 3 * 4`, "14"},
	}
	for _, c := range cases {
		if got := run(t, s, c.q); got != c.want {
			t.Errorf("%s = %q, want %q", c.q, got, c.want)
		}
	}
}

func TestFunctionErrors(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	for _, q := range []string{
		`count()`,
		`number("abc")`,
		`1 mod 0`,
		`5 mod 0.5`,
		`min(())`, // empty aggregate over min yields empty; evaluate but serialize must be ""
	} {
		_, err := query(s, q)
		switch q {
		case `min(())`:
			if err != nil {
				t.Errorf("min(()) should be the empty sequence, got error %v", err)
			}
		default:
			if err == nil {
				t.Errorf("no error for %s", q)
			}
		}
	}
}

func TestEffectiveBooleanValues(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	cases := []struct {
		q, want string
	}{
		{`if ("") then 1 else 0`, "0"},
		{`if ("x") then 1 else 0`, "1"},
		{`if (0) then 1 else 0`, "0"},
		{`if (0.5) then 1 else 0`, "1"},
		{`if (()) then 1 else 0`, "0"},
		{`if (/site/people) then 1 else 0`, "1"},
	}
	for _, c := range cases {
		if got := run(t, s, c.q); got != c.want {
			t.Errorf("%s = %q, want %q", c.q, got, c.want)
		}
	}
}

func TestComparisonSemantics(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	cases := []struct {
		q, want string
	}{
		// numeric when both sides parse as numbers
		{`"10" < "9"`, "false"},
		{`"abc" < "abd"`, "true"}, // string comparison otherwise
		{`10 = 10.0`, "true"},
		{`"1e2" = "100"`, "true"}, // both numeric
		// existential over sequences
		{`/site/people/person/age = 25`, "true"},
		{`/site/people/person/age = 26`, "false"},
		{`/site/people/person/age != 25`, "true"}, // some age differs
	}
	for _, c := range cases {
		if got := run(t, s, c.q); got != c.want {
			t.Errorf("%s = %q, want %q", c.q, got, c.want)
		}
	}
}

func TestDeepTextAtomization(t *testing.T) {
	s := newStore(t, `<a><b>one <c>two</c> three</b></a>`)
	if got := run(t, s, `string(/a/b)`); got != "one two three" {
		t.Fatalf("deep text = %q", got)
	}
	if got := run(t, s, `contains(/a/b, "two th")`); got != "true" {
		t.Fatalf("contains over mixed content = %q", got)
	}
}

func TestSerializeEscaping(t *testing.T) {
	s := newStore(t, `<a note="5 &lt; 6">x &amp; y</a>`)
	got := run(t, s, `/a`)
	if !strings.Contains(got, `note="5 &lt; 6"`) || !strings.Contains(got, "x &amp; y") {
		t.Fatalf("escaping lost: %q", got)
	}
}

// TestPrefixEnd: succ(P), the upper bound of the starts-with range, is P
// without its trailing 0xFF bytes with the last byte left incremented,
// and no bound when every byte is 0xFF.
func TestPrefixEnd(t *testing.T) {
	for _, c := range []struct{ p, want []byte }{
		{[]byte("gold"), []byte("gole")},
		{[]byte("a"), []byte("b")},
		{[]byte{'a', 0xff}, []byte("b")},
		{[]byte{'a', 0xfe, 0xff, 0xff}, []byte{'a', 0xff}},
		{[]byte{0x80}, []byte{0x81}},
		{[]byte{0xc3, 0xa9}, []byte{0xc3, 0xaa}}, // é
		{[]byte{0xff}, nil},
		{[]byte{0xff, 0xff, 0xff}, nil},
	} {
		p := bytes.Clone(c.p)
		got := engine.PrefixEnd(p)
		if !bytes.Equal(got, c.want) || (got == nil) != (c.want == nil) {
			t.Errorf("succ(%x) = %x, want %x", c.p, got, c.want)
		}
		if !bytes.Equal(p, c.p) {
			t.Errorf("succ(%x) changed its argument to %x", c.p, p)
		}
	}
}
