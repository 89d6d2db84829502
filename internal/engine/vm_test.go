package engine

import (
	"context"
	"strings"
	"testing"

	"xquec/internal/storage"
	"xquec/internal/vm"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
)

// evalVM compiles and runs the program.
func evalVM(t testing.TB, s *storage.Store, q string) (string, error) {
	t.Helper()
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	prog, err := Compile(expr, s, q)
	if err != nil {
		t.Fatalf("compile %q: %v", q, err)
	}
	res, err := prog.Run(context.Background())
	if err != nil {
		return "", err
	}
	defer res.Close()
	return res.SerializeXML()
}

// TestEarlyStop: closing the result mid-stream must not leak or fault,
// and resuming a fresh run must still produce full output.
func TestEarlyStop(t *testing.T) {
	s := vm.Store(t)
	q := `FOR $p IN /site/people/person RETURN $p/name/text()`
	expr, _ := xquery.Parse(q)
	prog, err := Compile(expr, s, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := res.Next(); err != nil || !ok {
		t.Fatalf("first item: ok=%v err=%v", ok, err)
	}
	res.Close()

	full, err := evalVM(t, s, q)
	if err != nil {
		t.Fatal(err)
	}
	if full == "" {
		t.Fatal("no output after restart")
	}
}

// TestDisassemble sanity-checks the renderer on a representative plan.
func TestDisassemble(t *testing.T) {
	s := vm.Store(t)
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

// TestConstantFolding: constant arithmetic lowers to the number it is,
// and a comparison with it is a literal restrict, but mod does not fold.
// Lowering never mutates the input AST.
func TestConstantFolding(t *testing.T) {
	expr, err := xquery.Parse(`1 + 2 * 3`)
	if err != nil {
		t.Fatal(err)
	}
	c := &compiler{p: &Program{}}
	if n, ok := c.lower(expr).(*numLit); !ok || n.val != 7 {
		t.Fatalf("lower(1+2*3) = %#v, want the number 7", c.lower(expr))
	}
	// mod must NOT fold (its zero-divisor fault is an eval-time event).
	expr2, _ := xquery.Parse(`5 mod 2`)
	if _, isLit := c.lower(expr2).(*numLit); isLit {
		t.Fatal("mod folded")
	}
	q := `FOR $i IN /site/people/person WHERE $i/profile/age > 1 + 1 RETURN $i`
	expr3, _ := xquery.Parse(q)
	before := expr3.String()
	prog, err := Compile(expr3, vm.Store(t), q)
	if err != nil {
		t.Fatal(err)
	}
	if dis := prog.Disassemble(); !strings.Contains(dis, "LITREST") {
		t.Errorf("$i/profile/age > 1 + 1 is no literal restrict:\n%s", dis)
	}
	if expr3.String() != before {
		t.Fatal("Compile mutated its input")
	}
}

// TestRunRecoversPanic: a panicking instruction fails the run with an
// error — sticky, with the decode scratch released — and leaves the
// program fit for the next run.
func TestRunRecoversPanic(t *testing.T) {
	s := vm.Store(t)
	q := `(/site/regions/africa/item/name/text(), 1 + count(/site/people/person))`
	expr, _ := xquery.Parse(q)
	prog, err := Compile(expr, s, q)
	if err != nil {
		t.Fatal(err)
	}
	pc := -1
	for i, in := range prog.instrs {
		if in.Op == opEvalPush {
			pc = i
		}
	}
	if pc < 0 {
		t.Fatalf("no EVAL to break:\n%s", prog.Disassemble())
	}
	r, err := withPanic(prog, pc).newRun(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	items := 0
	for {
		_, ok, err := r.next()
		if err != nil {
			if !strings.Contains(err.Error(), "internal error") {
				t.Fatalf("err = %v", err)
			}
			if _, _, again := r.next(); again != err {
				t.Fatalf("error not sticky: %v then %v", err, again)
			}
			break
		}
		if !ok {
			t.Fatal("run ended without the panic")
		}
		items++
	}
	if items == 0 {
		t.Fatal("no items before the panic")
	}
	want, wErr := vm.EvalRef(t, q)
	got, vErr := evalVM(t, s, q)
	if d := vm.Differ(want, wErr, got, vErr); d != "" {
		t.Fatalf("run after the panic: %s", d)
	}
}

// TestNestedLetListing: Q8's and Q16's inner FLWORs are loops of the
// program between LETOPEN and LETBIND, their join restricts read an
// index built at compile time, and the program's size counts it.
func TestNestedLetListing(t *testing.T) {
	s := vm.Store(t)
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

// TestEmissionListing: RETURN constructors are written through templates
// (Q8, Q16, Q20), and so are the items of a LET-FLWOR that the RETURN
// only writes out or counts — Q9's constructors, Q16's text() items —
// while a LET whose items are atomized keeps building fragments.
func TestEmissionListing(t *testing.T) {
	s := vm.Store(t)
	for q, want := range map[string][]string{
		xmarkq.Q8:  {"EMITCTOR", "APPENDCUR"},
		xmarkq.Q9:  {"EMITCTOR", "APPENDCTOR"},
		xmarkq.Q16: {"EMITCTOR", "APPENDOUT"},
		xmarkq.Q20: {"EMITCTOR m0, next->1"},
		`FOR $p IN /site/people/person LET $a := FOR $t IN /site/closed_auctions/closed_auction WHERE $t/buyer/@person = $p/@id RETURN <t/> RETURN <p s="{$a}"/>`: {"APPEND   a0", "EMITCTOR"},
	} {
		expr, _ := xquery.Parse(q)
		prog, err := Compile(expr, s, q)
		if err != nil {
			t.Fatal(err)
		}
		dis := prog.Disassemble()
		for _, w := range want {
			if !strings.Contains(dis, w) {
				t.Errorf("listing lacks %q:\n%s", w, dis)
			}
		}
		if strings.Contains(dis, "EVAL") {
			t.Errorf("a constructor is still handed to the engine:\n%s", dis)
		}
	}
}

// TestSubProgramRestoresScope: a sub-program whose clauses shadow the
// caller's $p binds slots of its own, so the outer $p, read through its
// slot, is the caller's when the sub-program returns — also when it fails
// part-way, while collecting, sorting or replaying.
// (No count here is one a cardinality rule answers without running the
// sub-program: each RETURN yields two items, has an ORDER BY or a LET.)
func TestSubProgramRestoresScope(t *testing.T) {
	s := vm.Store(t)
	const inner = `FOR $p IN /site/closed_auctions/closed_auction `
	for q, fails := range map[string]bool{
		`FOR $p IN /site/people/person RETURN count(` + inner + `RETURN ($p, $p))`:                                                                  false,
		`FOR $p IN /site/people/person RETURN count(` + inner + `ORDER BY $p/price RETURN $p)`:                                                      false,
		`FOR $p IN /site/people/person RETURN count(` + inner + `RETURN number($p/price) mod 0)`:                                                    true,
		`FOR $p IN /site/people/person RETURN count(` + inner + `ORDER BY number($p/price) mod 0 RETURN $p)`:                                        true,
		`FOR $p IN /site/people/person RETURN count(` + inner + `ORDER BY $p/price RETURN $p/price mod 0)`:                                          true,
		`FOR $p IN /site/people/person RETURN count(` + inner + `LET $p := $p/price ORDER BY $p RETURN $p)`:                                         false,
		`FOR $p IN /site/people/person RETURN count(FOR $t IN /site/closed_auctions/closed_auction LET $p := $t/price ORDER BY $t/price RETURN $p)`: false,
		`FOR $p IN /site/people/person RETURN count(` + inner + `LET $q := $p/price mod 0 ORDER BY 1 RETURN $q)`:                                    true,
	} {
		expr, err := xquery.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(expr, s, q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := prog.newRun(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.next(); (err != nil) != fails {
			t.Fatalf("%s: err = %v, want failure %v", q, err, fails)
		}
		outer := expr.(*xquery.FLWOR).Clauses[0].Binder
		got, err := newNode(&varRef{name: "p", binder: outer}).items(r.eng, nil)
		if err != nil {
			t.Fatalf("%s: $p after the sub-program: %v", q, err)
		}
		if len(got) != 1 || got[0] != r.cursors[0].ids[0] {
			t.Fatalf("%s: $p after the sub-program is %v, want the first person %d", q, got, r.cursors[0].ids[0])
		}
	}
}
