package workload

import (
	"strings"
	"testing"
)

func TestBuilders(t *testing.T) {
	var w Workload
	w.EqConst("/a/x")
	w.IneqConst("/a/y")
	w.WildConst("/a/z")
	w.EqJoin("/a/x", "/a/y")
	w.IneqJoin("/a/y", "/a/z")
	if len(w.Predicates) != 5 {
		t.Fatalf("got %d predicates", len(w.Predicates))
	}
	kinds := []PredKind{Eq, Ineq, Wild, Eq, Ineq}
	joins := []bool{false, false, false, true, true}
	for i, p := range w.Predicates {
		if p.Kind != kinds[i] || p.IsJoin() != joins[i] {
			t.Fatalf("predicate %d = %+v", i, p)
		}
	}
}

func TestPathsDedup(t *testing.T) {
	var w Workload
	w.EqConst("/a")
	w.EqJoin("/a", "/b")
	w.IneqConst("/b")
	w.WildConst("/c")
	got := w.Paths()
	want := []string{"/a", "/b", "/c"}
	if len(got) != len(want) {
		t.Fatalf("Paths = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Paths[%d] = %s", i, got[i])
		}
	}
}

func TestStrings(t *testing.T) {
	p := Predicate{Kind: Ineq, Left: "/a/b"}
	if !strings.Contains(p.String(), "ineq") || !strings.Contains(p.String(), "<const>") {
		t.Fatalf("String = %s", p.String())
	}
	if Eq.String() != "eq" || Wild.String() != "wild" || PredKind(9).String() == "" {
		t.Fatal("kind strings")
	}
}
