package xquec_test

import (
	"context"
	"sync"
	"testing"

	"xquec"
	"xquec/internal/baselines/galaxlike"
	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
)

// evalWith runs one query and returns the serialized result.
func evalWith(db *xquec.Database, query string) (string, error) {
	res, err := db.Execute(context.Background(), query, xquec.QueryOptions{})
	if err != nil {
		return "", err
	}
	defer res.Close()
	return xquec.ResultXML(res)
}

// domXML evaluates a query over the uncompressed document with the DOM
// reference evaluator, which shares no code with the compressed engine.
func domXML(t *testing.T, doc []byte, q string) string {
	t.Helper()
	out, err := refXML(doc, q)
	if err != nil {
		t.Fatalf("reference: %s: %v", q, err)
	}
	return out
}

// refXML is domXML for a query that may fail.
func refXML(doc []byte, q string) (string, error) {
	res, err := galaxlike.New(doc).Query(q)
	if err != nil {
		return "", err
	}
	return res.SerializeXML()
}

// TestVMDifferentialMatrix is the top-level correctness gate for the
// compiled-plan engine: every benchmark query, with the document cut
// into Options.Shards ∈ {1, 2, 4, 8} parts, must produce output
// byte-identical to the DOM reference over the uncompressed document. A cut database runs every
// query on its fused store.
func TestVMDifferentialMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is slow under -short")
	}
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.03, Seed: 91})
	queries := append(xmarkq.Queries(), xmarkq.ExtendedQueries()...)
	want := map[string]string{}
	for _, q := range queries {
		want[q.ID] = domXML(t, doc, q.Text)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		db, err := xquec.Compress(doc, xquec.Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for _, q := range queries {
			got, err := evalWith(db, q.Text)
			if err != nil {
				t.Fatalf("shards=%d %s: %v", shards, q.ID, err)
			}
			if got != want[q.ID] {
				t.Fatalf("shards=%d %s: output differs from the reference\n--- vm ---\n%.400s\n--- reference ---\n%.400s",
					shards, q.ID, got, want[q.ID])
			}
		}
	}
}

// TestEvalEngineSwitch pins what replaced the evaluator switch: a
// prepared statement is its compiled program — instructions, a listing
// and a resident size for the plan cache — and runs as nothing else.
func TestEvalEngineSwitch(t *testing.T) {
	db, err := xquec.Compress([]byte(`<doc><a>1</a><a>2</a></doc>`), xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(`count(/doc/a)`)
	if err != nil {
		t.Fatal(err)
	}
	if prep.ProgramLen() == 0 {
		t.Fatal("prepared statement has no program")
	}
	if prep.CostBytes() <= 0 {
		t.Fatalf("CostBytes = %d", prep.CostBytes())
	}
	if dis := prep.Disassemble(); dis == "" {
		t.Fatal("empty disassembly for a compiled plan")
	}
	res, err := prep.Execute(context.Background(), xquec.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := xquec.ResultXML(res)
	res.Close()
	if err != nil || out != "2" {
		t.Fatalf("result = %q, %v", out, err)
	}
}

// TestNestedLetDifferential pins the nested FLWORs — the LETs bound to
// one, which the compiler lowers to loops of the program, and the rest,
// which it compiles to sub-programs: Q8, Q9 and Q16 at two scales and two
// seeds, and every shape of xmarkq.NestedFLWORs — and the string-function
// restricts, Q14 and xmarkq.StringRestricts, cut into {1, 4} parts,
// against the DOM reference (a query the reference fails must fail).
func TestNestedLetDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is slow under -short")
	}
	joins := []xmarkq.Query{{ID: "q8", Text: xmarkq.Q8}, {ID: "q9", Text: xmarkq.Q9}, {ID: "q16", Text: xmarkq.Q16}}
	type corpus struct {
		scale   float64
		seed    int64
		queries []xmarkq.Query
	}
	nested := append(joins, xmarkq.NestedFLWORs()...)
	nested = append(nested, xmarkq.Query{ID: "q14", Text: xmarkq.Q14})
	nested = append(nested, xmarkq.StringRestricts()...)
	corpora := []corpus{
		{0.03, 5, nested},
		{0.03, 17, joins},
		{0.1, 5, joins},
		{0.1, 17, nested},
	}
	for _, c := range corpora {
		doc := datagen.XMark(datagen.XMarkConfig{Scale: c.scale, Seed: c.seed})
		for _, shards := range []int{1, 4} {
			db, err := xquec.Compress(doc, xquec.Options{Shards: shards})
			if err != nil {
				t.Fatalf("scale=%v seed=%d shards=%d: %v", c.scale, c.seed, shards, err)
			}
			for _, q := range c.queries {
				want, wErr := refXML(doc, q.Text)
				got, err := evalWith(db, q.Text)
				if (err == nil) != (wErr == nil) {
					t.Fatalf("scale=%v seed=%d shards=%d %s: error %v, reference error %v", c.scale, c.seed, shards, q.ID, err, wErr)
				}
				if err == nil && got != want {
					t.Fatalf("scale=%v seed=%d shards=%d %s: output differs from the reference\n--- vm ---\n%.400s\n--- reference ---\n%.400s",
						c.scale, c.seed, shards, q.ID, got, want)
				}
			}
		}
	}
}

// TestPreparedSharedJoinIndex: every execution of a prepared Q9 reads
// the join indexes its program built at compile time; eight at once must
// each produce the serial output (run under -race by make check).
func TestPreparedSharedJoinIndex(t *testing.T) {
	db, err := xquec.Compress(datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 11}), xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(xmarkq.Q9)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (string, error) {
		res, err := prep.Execute(context.Background(), xquec.QueryOptions{})
		if err != nil {
			return "", err
		}
		defer res.Close()
		return xquec.ResultXML(res)
	}
	want, err := run()
	if err != nil || want == "" {
		t.Fatalf("serial run: %q, %v", want, err)
	}
	outs, errs := make([]string, 8), make([]error, 8)
	var wg sync.WaitGroup
	for g := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[g], errs[g] = run()
		}()
	}
	wg.Wait()
	for g := range outs {
		if errs[g] != nil || outs[g] != want {
			t.Fatalf("goroutine %d: err=%v, output equal=%v", g, errs[g], outs[g] == want)
		}
	}
}
