package vm

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
)

var testStore *storage.Store

func store(t testing.TB) *storage.Store {
	t.Helper()
	if testStore == nil {
		doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.04, Seed: 7})
		s, err := storage.Load(doc, storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		testStore = s
	}
	return testStore
}

// drain pulls a stream to the end, serializing every item; it returns
// the serialization and the error (if any) that ended the stream.
func drain(s *storage.Store, next func() (engine.Item, bool, error)) (string, error) {
	var sb strings.Builder
	buf := make([]byte, 0, 256)
	sc := storage.NewScratch()
	defer sc.Release()
	eng := engine.New(s)
	res := eng.NewPullResult(func() (engine.Item, error, bool) { return nil, nil, false }, nil)
	for {
		it, ok, err := next()
		if err != nil {
			return sb.String(), err
		}
		if !ok {
			return sb.String(), nil
		}
		b, err := res.AppendItemXML(buf[:0], it)
		if err != nil {
			return sb.String(), err
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
}

// evalEager runs the engine's eager evaluator, the oracle.
func evalEager(t *testing.T, s *storage.Store, q string, par int) (string, error) {
	t.Helper()
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	res, err := engine.New(s).WithParallelism(par).Eval(expr)
	if err != nil {
		return "", err
	}
	return drain(s, res.Next)
}

// evalVM compiles and runs the program.
func evalVM(t *testing.T, s *storage.Store, q string, par int) (string, error) {
	t.Helper()
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	prog, err := Compile(expr, s, q)
	if err != nil {
		t.Fatalf("compile %q: %v", q, err)
	}
	res, err := prog.Run(RunOptions{Parallelism: par})
	if err != nil {
		return "", err
	}
	defer res.Close()
	return drain(s, res.Next)
}

// queryBattery is the unit-level differential corpus: XMark plus
// targeted shapes for each compiled construct (restrict reordering,
// deferred slots, invariant domains, LET propagation, residual WHERE,
// fallback blocks, text tails, sequences of blocks) and the nested LET
// shapes the compiler lowers to loops.
func queryBattery() []xmarkq.Query {
	qs := append([]xmarkq.Query{}, xmarkq.Queries()...)
	qs = append(qs, xmarkq.ExtendedQueries()...)
	extra := []xmarkq.Query{
		{ID: "top-path", Text: `/site/regions/africa/item/name`},
		{ID: "top-path-text", Text: `/site/regions/africa/item/name/text()`},
		{ID: "top-path-desc", Text: `/site//item/name/text()`},
		{ID: "top-path-pred", Text: `/site/people/person[@id = "person0"]/name/text()`},
		{ID: "seq-blocks", Text: `(count(/site/people/person), /site/regions/africa/item/name/text(), 1 + 2)`},
		{ID: "fold-arith", Text: `FOR $i IN /site/open_auctions/open_auction WHERE $i/initial > 2 * 10 RETURN $i/initial/text()`},
		{ID: "fold-div", Text: `FOR $i IN /site/open_auctions/open_auction WHERE $i/initial > 100 div 5 RETURN $i/initial/text()`},
		{ID: "two-lits", Text: `FOR $p IN /site/people/person/profile WHERE $p/@income >= 30000 AND $p/age >= 30 RETURN $p/age/text()`},
		{ID: "lit-and-residual", Text: `FOR $p IN /site/people/person WHERE $p/profile/@income >= 30000 AND contains($p/name, "a") RETURN $p/name/text()`},
		{ID: "let-prop", Text: `LET $ps := /site/people/person FOR $p IN $ps WHERE $p/profile/@income >= 40000 RETURN $p/name/text()`},
		{ID: "nested-for", Text: `FOR $a IN /site/closed_auctions/closed_auction FOR $p IN /site/people/person WHERE $p/@id = $a/buyer/@person RETURN $p/name/text()`},
		{ID: "text-domain", Text: `FOR $t IN /site/regions/africa/item/name/text() RETURN $t`},
		{ID: "where-no-for", Text: `LET $n := count(/site/people/person) WHERE $n > 0 RETURN $n`},
		{ID: "orderby", Text: `FOR $p IN /site/people/person ORDER BY $p/name RETURN $p/name/text()`},
		{ID: "orderby-desc", Text: `FOR $p IN /site/people/person ORDER BY $p/name DESCENDING RETURN $p/name/text()`},
		{ID: "ctor-return", Text: `FOR $i IN /site/regions/asia/item RETURN <it name="{$i/name/text()}"/>`},
		{ID: "empty-domain", Text: `FOR $x IN /site/nonexistent/thing RETURN $x`},
		{ID: "if-return", Text: `FOR $p IN /site/people/person RETURN if ($p/profile/@income >= 50000) then $p/name/text() else "modest"`},
		{ID: "var-return", Text: `FOR $i IN /site/regions/africa/item/name RETURN $i`},
		{ID: "agg-block", Text: `sum(/site/open_auctions/open_auction/initial)`},
		{ID: "invariant-inner", Text: `FOR $p IN /site/people/person FOR $e IN /site/regions/europe/item WHERE $p/@id = "person1" RETURN $e/name/text()`},
	}
	qs = append(qs, extra...)
	return append(qs, xmarkq.NestedLets()...)
}

// TestDifferentialBattery: VM output must be byte-identical to the
// eager evaluator for every battery query at parallelism 1 and 4, and
// fail with the same error where it fails (the VM may have streamed
// items before a late error; the eager result has none).
func TestDifferentialBattery(t *testing.T) {
	s := store(t)
	for _, q := range queryBattery() {
		for _, par := range []int{1, 4} {
			want, wErr := evalEager(t, s, q.Text, par)
			got, vErr := evalVM(t, s, q.Text, par)
			if err := differ(want, wErr, got, vErr); err != "" {
				t.Fatalf("%s par=%d: %s", q.ID, par, err)
			}
		}
	}
}

// differ compares a VM result with the oracle's: the same error, or no
// error and the same output. It returns what differs, "" if nothing.
func differ(want string, wErr error, got string, vErr error) string {
	switch {
	case (wErr == nil) != (vErr == nil):
		return fmt.Sprintf("eager err=%v, vm err=%v", wErr, vErr)
	case wErr != nil && wErr.Error() != vErr.Error():
		return fmt.Sprintf("eager err %q, vm err %q", wErr, vErr)
	case wErr == nil && got != want:
		return fmt.Sprintf("output mismatch\n--- eager ---\n%s\n--- vm ---\n%s", want, got)
	}
	return ""
}

// TestBindHookParity: the clause-0 bind hook observes, in order, the
// top-level path's nodes or the clause-0 bindings that pass their own
// filters — the nodes the eager evaluator returns for each oracle query.
func TestBindHookParity(t *testing.T) {
	s := store(t)
	hooked := []struct{ query, origins string }{
		{`FOR $p IN /site/people/person WHERE $p/profile/@income >= 30000 RETURN $p/name/text()`,
			`FOR $p IN /site/people/person WHERE $p/profile/@income >= 30000 RETURN $p`},
		{`/site/regions/africa/item/name/text()`, `/site/regions/africa/item/name`},
		{`FOR $a IN /site/closed_auctions/closed_auction FOR $p IN /site/people/person WHERE $p/@id = $a/buyer/@person RETURN $p/name/text()`,
			`/site/closed_auctions/closed_auction`},
		{`FOR $p IN /site/people/person WHERE $p/profile/@income >= 30000 ORDER BY $p/name DESCENDING RETURN $p/name/text()`,
			`FOR $p IN /site/people/person WHERE $p/profile/@income >= 30000 RETURN $p`},
	}
	for _, h := range hooked {
		res, err := engine.New(s).Query(h.origins)
		if err != nil {
			t.Fatal(err)
		}
		var want []storage.NodeID
		for {
			it, ok, err := res.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			want = append(want, it.(storage.NodeID))
		}

		expr, err := xquery.Parse(h.query)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(expr, s, h.query)
		if err != nil {
			t.Fatal(err)
		}
		var got []storage.NodeID
		vres, err := prog.Run(RunOptions{BindHook: func(id storage.NodeID) {
			got = append(got, id)
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drain(s, vres.Next); err != nil {
			t.Fatal(err)
		}
		vres.Close()

		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%s: hooked %d nodes %v, want %d %v", h.query, len(got), got, len(want), want)
		}
	}
}

// TestEarlyStop: closing the result mid-stream must not leak or fault,
// and resuming a fresh run must still produce full output.
func TestEarlyStop(t *testing.T) {
	s := store(t)
	q := `FOR $p IN /site/people/person RETURN $p/name/text()`
	expr, _ := xquery.Parse(q)
	prog, err := Compile(expr, s, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := res.Next(); err != nil || !ok {
		t.Fatalf("first item: ok=%v err=%v", ok, err)
	}
	res.Close()

	full, err := evalVM(t, s, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full == "" {
		t.Fatal("no output after restart")
	}
}

// TestDisassemble sanity-checks the renderer on a representative plan.
func TestDisassemble(t *testing.T) {
	s := store(t)
	q := `FOR $i IN /site/closed_auctions/closed_auction WHERE $i/price >= 40 RETURN $i/price/text()`
	expr, _ := xquery.Parse(q)
	prog, err := Compile(expr, s, q)
	if err != nil {
		t.Fatal(err)
	}
	dis := prog.Disassemble()
	for _, want := range []string{"SCAN", "LITREST", "ITER", "EMITSEQ", "HALT", "price"} {
		if !strings.Contains(dis, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, dis)
		}
	}
	if prog.Len() == 0 || prog.SizeBytes() == 0 {
		t.Fatal("empty program metrics")
	}
}

// TestConstantFolding: folded programs still match the oracle, and
// folding actually rewrites the arithmetic.
func TestConstantFolding(t *testing.T) {
	expr, err := xquery.Parse(`1 + 2 * 3`)
	if err != nil {
		t.Fatal(err)
	}
	folded := foldExpr(expr)
	n, ok := folded.(*xquery.NumberLit)
	if !ok || n.Val != 7 {
		t.Fatalf("fold(1+2*3) = %v, want NumberLit 7", folded)
	}
	// mod must NOT fold (its zero-divisor fault is an eval-time event).
	expr2, _ := xquery.Parse(`5 mod 2`)
	if _, isLit := foldExpr(expr2).(*xquery.NumberLit); isLit {
		t.Fatal("mod folded")
	}
	// Folding never mutates the input AST.
	expr3, _ := xquery.Parse(`FOR $i IN /a WHERE $i/b > 1 + 1 RETURN $i`)
	before := expr3.String()
	foldExpr(expr3)
	if expr3.String() != before {
		t.Fatal("foldExpr mutated its input")
	}
}

// TestRunRecoversPanic: a panicking instruction fails the run with an
// error — sticky, with the decode scratch released — and leaves the
// program fit for the next run.
func TestRunRecoversPanic(t *testing.T) {
	s := store(t)
	q := `(/site/regions/africa/item/name/text(), 1 + count(/site/people/person))`
	expr, _ := xquery.Parse(q)
	prog, err := Compile(expr, s, q)
	if err != nil {
		t.Fatal(err)
	}
	pc := -1
	for i, in := range prog.instrs {
		if in.Op == OpEvalPush {
			pc = i
		}
	}
	if pc < 0 {
		t.Fatalf("no EVAL to break:\n%s", prog.Disassemble())
	}
	r, err := withPanic(prog, pc).NewRun(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	items := 0
	for {
		_, ok, err := r.Next()
		if err != nil {
			if !strings.Contains(err.Error(), "internal error") {
				t.Fatalf("err = %v", err)
			}
			if _, _, again := r.Next(); again != err {
				t.Fatalf("error not sticky: %v then %v", err, again)
			}
			break
		}
		if !ok {
			t.Fatal("run ended without the panic")
		}
		items++
	}
	if items == 0 || r.sc != nil {
		t.Fatalf("items before the panic = %d, scratch released = %v", items, r.sc == nil)
	}
	want, wErr := evalEager(t, s, q, 1)
	got, vErr := evalVM(t, s, q, 1)
	if d := differ(want, wErr, got, vErr); d != "" {
		t.Fatalf("run after the panic: %s", d)
	}
}

// TestNestedLetListing: Q8's and Q16's inner FLWORs are loops of the
// program between LETOPEN and LETBIND, their join restricts read an
// index built at compile time, and the program's size counts it.
func TestNestedLetListing(t *testing.T) {
	s := store(t)
	for _, q := range []string{xmarkq.Q8, xmarkq.Q16} {
		expr, _ := xquery.Parse(q)
		prog, err := Compile(expr, s, q)
		if err != nil {
			t.Fatal(err)
		}
		dis := prog.Disassemble()
		open, bind := strings.Index(dis, "LETOPEN"), strings.Index(dis, "LETBIND")
		if open < 0 || bind < open {
			t.Fatalf("no LETOPEN…LETBIND:\n%s", dis)
		}
		inner := dis[open:bind]
		for _, want := range []string{"SCAN", "JOINREST", "index built at compile", "ITER", "APPEND"} {
			if !strings.Contains(inner, want) {
				t.Fatalf("inner loops lack %q:\n%s", want, dis)
			}
		}
		if strings.Contains(dis, "LET  ") {
			t.Fatalf("the LET is still handed to the engine:\n%s", dis)
		}
		if ib := prog.joinIndexBytes(); ib == 0 || prog.SizeBytes() <= ib {
			t.Fatalf("SizeBytes = %d, join index bytes = %d", prog.SizeBytes(), ib)
		}
	}
}
