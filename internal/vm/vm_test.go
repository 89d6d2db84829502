package vm

import (
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

// evalTree runs the tree-walking oracle.
func evalTree(t *testing.T, s *storage.Store, q string, par int) (string, error) {
	t.Helper()
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	res, err := engine.New(s).WithParallelism(par).EvalStream(expr)
	if err != nil {
		return "", err
	}
	defer res.Close()
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
// fallback blocks, text tails, sequences of blocks).
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
	return append(qs, extra...)
}

// TestDifferentialBattery: VM output must be byte-identical to the
// tree walker — including errors — for every battery query at
// parallelism 1 and 4.
func TestDifferentialBattery(t *testing.T) {
	s := store(t)
	for _, q := range queryBattery() {
		for _, par := range []int{1, 4} {
			tOut, tErr := evalTree(t, s, q.Text, par)
			vOut, vErr := evalVM(t, s, q.Text, par)
			if (tErr == nil) != (vErr == nil) {
				t.Fatalf("%s par=%d: tree err=%v, vm err=%v", q.ID, par, tErr, vErr)
			}
			if tErr != nil && tErr.Error() != vErr.Error() {
				t.Fatalf("%s par=%d: tree err %q, vm err %q", q.ID, par, tErr, vErr)
			}
			if tOut != vOut {
				t.Fatalf("%s par=%d: output mismatch\n--- tree ---\n%s\n--- vm ---\n%s", q.ID, par, tOut, vOut)
			}
		}
	}
}

// TestBindHookParity: the clause-0 bind hook must observe the same
// nodes in the same order under both engines.
func TestBindHookParity(t *testing.T) {
	s := store(t)
	hooked := []string{
		`FOR $p IN /site/people/person WHERE $p/profile/@income >= 30000 RETURN $p/name/text()`,
		`/site/regions/africa/item/name/text()`,
		`FOR $a IN /site/closed_auctions/closed_auction FOR $p IN /site/people/person WHERE $p/@id = $a/buyer/@person RETURN $p/name/text()`,
		`FOR $p IN /site/people/person WHERE $p/profile/@income >= 30000 ORDER BY $p/name DESCENDING RETURN $p/name/text()`,
	}
	for _, q := range hooked {
		expr, err := xquery.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		var treeIDs []storage.NodeID
		res, err := engine.New(s).WithBindHook(func(id storage.NodeID) {
			treeIDs = append(treeIDs, id)
		}).EvalStream(expr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drain(s, res.Next); err != nil {
			t.Fatal(err)
		}
		res.Close()

		prog, err := Compile(expr, s, q)
		if err != nil {
			t.Fatal(err)
		}
		var vmIDs []storage.NodeID
		vres, err := prog.Run(RunOptions{BindHook: func(id storage.NodeID) {
			vmIDs = append(vmIDs, id)
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drain(s, vres.Next); err != nil {
			t.Fatal(err)
		}
		vres.Close()

		if len(treeIDs) != len(vmIDs) {
			t.Fatalf("%s: hook count tree=%d vm=%d", q, len(treeIDs), len(vmIDs))
		}
		for i := range treeIDs {
			if treeIDs[i] != vmIDs[i] {
				t.Fatalf("%s: hook[%d] tree=%d vm=%d", q, i, treeIDs[i], vmIDs[i])
			}
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
