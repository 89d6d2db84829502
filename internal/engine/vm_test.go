package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xquec/internal/baselines/galaxlike"
	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
)

var (
	testStore *storage.Store
	testRef   *galaxlike.Engine // the DOM reference over the same document
)

func store(t testing.TB) *storage.Store {
	t.Helper()
	if testStore == nil {
		doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.04, Seed: 7})
		s, err := storage.Load(doc, storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		testStore, testRef = s, galaxlike.New(doc)
		testRef.ParsePerQuery = false
	}
	return testStore
}

// drain pulls a stream to the end, serializing every item; it returns
// the serialization and the error (if any) that ended the stream.
func drain(s *storage.Store, next func() (Item, bool, error)) (string, error) {
	var sb strings.Builder
	buf := make([]byte, 0, 256)
	sc := storage.NewScratch()
	defer sc.Release()
	res := &Result{store: s}
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

// evalRef runs the DOM reference evaluator, the oracle, over the
// document of the test store.
func evalRef(t testing.TB, q string) (string, error) {
	store(t)
	res, err := testRef.Query(q)
	if err != nil {
		return "", err
	}
	return res.SerializeXML()
}

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

// differ compares a VM result with the oracle's: both fail, or neither
// does and the outputs are the same. It returns what differs, "" if
// nothing.
func differ(want string, wErr error, got string, vErr error) string {
	switch {
	case (wErr == nil) != (vErr == nil):
		return fmt.Sprintf("reference err=%v, vm err=%v", wErr, vErr)
	case wErr == nil && got != want:
		return fmt.Sprintf("output mismatch\n--- reference ---\n%s\n--- vm ---\n%s", want, got)
	}
	return ""
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
	if items == 0 || r.sc != nil {
		t.Fatalf("items before the panic = %d, scratch released = %v", items, r.sc == nil)
	}
	want, wErr := evalRef(t, q)
	got, vErr := evalVM(t, s, q)
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

// TestEmissionListing: RETURN constructors are written through templates
// (Q8, Q16, Q20), and so are the items of a LET-FLWOR that the RETURN
// only writes out or counts — Q9's constructors, Q16's text() items —
// while a LET whose items are atomized keeps building fragments.
func TestEmissionListing(t *testing.T) {
	s := store(t)
	for q, want := range map[string][]string{
		xmarkq.Q8:  {"EMITCTOR", "APPENDCUR"},
		xmarkq.Q9:  {"EMITCTOR", "APPENDCTOR"},
		xmarkq.Q16: {"EMITCTOR", "APPENDOUT"},
		xmarkq.Q20: {"EMITCTOR m0, next->2"},
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

// TestSubProgramRestoresScope: a sub-program binds its clauses into the
// caller's scope and, when it returns, puts back what they shadowed —
// also when it fails part-way, while collecting, sorting or replaying.
func TestSubProgramRestoresScope(t *testing.T) {
	s := store(t)
	const inner = `FOR $p IN /site/closed_auctions/closed_auction `
	for q, fails := range map[string]bool{
		`FOR $p IN /site/people/person RETURN count(` + inner + `RETURN $p)`:                                                                        false,
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
		got, err := r.eng.eval(&xquery.VarRef{Name: "p"}, r.env.s)
		if err != nil {
			t.Fatalf("%s: $p after the sub-program: %v", q, err)
		}
		if len(got) != 1 || got[0] != r.cursors[0].ids[0] {
			t.Fatalf("%s: $p after the sub-program is %v, want the first person %d", q, got, r.cursors[0].ids[0])
		}
	}
}
